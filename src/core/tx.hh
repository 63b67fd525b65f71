/**
 * @file
 * RAII durable-transaction handle.
 *
 * A DurableTx begins a transaction on construction; the caller must
 * commit() explicitly. If the handle is destroyed without a commit
 * (e.g. an exception unwound the scope) the transaction aborts,
 * replaying the undo log — the software analogue of tx_begin/tx_end
 * in Figure 1.
 *
 * Frees belong to the transaction, as with PMDK's pmemobj_tx_free:
 * free() records a block, commit() releases it after the commit, and
 * an abort or a crash drops it. A rollback may still point at the
 * block, so it must not be reused before the commit (Section IV-B).
 * The first few frees are held in the handle itself (an update records
 * one, a remove at most three); only a resize spills to the host heap.
 */

#ifndef SLPMT_CORE_TX_HH
#define SLPMT_CORE_TX_HH

#include <array>
#include <vector>

#include "core/pm_context.hh"

namespace slpmt
{

/** Scoped durable transaction. */
class DurableTx
{
  public:
    explicit DurableTx(PmContext &sys) : sys(sys) { sys.txBegin(); }

    DurableTx(const DurableTx &) = delete;
    DurableTx &operator=(const DurableTx &) = delete;

    ~DurableTx()
    {
        if (!done && sys.inTransaction())
            sys.txAbort();
    }

    /** Free the allocation at @p base when this transaction commits. */
    void
    free(Addr base)
    {
        panicIfNot(!done, "transaction already finished");
        if (numFirst < firstFrees.size())
            firstFrees[numFirst++] = base;
        else
            moreFrees.push_back(base);
    }

    /** Commit, then release the recorded frees in order; the handle
     *  becomes inert. */
    void
    commit()
    {
        panicIfNot(!done, "transaction already finished");
        sys.txCommit();
        done = true;
        for (std::size_t i = 0; i < numFirst; ++i)
            sys.heap().free(firstFrees[i]);
        for (Addr base : moreFrees)
            sys.heap().free(base);
    }

    /** Abort explicitly, dropping the frees; the handle becomes inert. */
    void
    abort()
    {
        panicIfNot(!done, "transaction already finished");
        sys.txAbort();
        done = true;
    }

  private:
    PmContext &sys;
    /** The recorded frees in order: the first ones inline, the rest
     *  (a resize's) in moreFrees. */
    std::array<Addr, 4> firstFrees{};
    std::size_t numFirst = 0;
    std::vector<Addr> moreFrees;
    bool done = false;
};

} // namespace slpmt

#endif // SLPMT_CORE_TX_HH
