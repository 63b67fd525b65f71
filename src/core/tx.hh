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
 */

#ifndef SLPMT_CORE_TX_HH
#define SLPMT_CORE_TX_HH

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
        frees.push_back(base);
    }

    /** Commit, then release the recorded frees in order; the handle
     *  becomes inert. */
    void
    commit()
    {
        panicIfNot(!done, "transaction already finished");
        sys.txCommit();
        done = true;
        for (Addr base : frees)
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
    std::vector<Addr> frees;
    bool done = false;
};

} // namespace slpmt

#endif // SLPMT_CORE_TX_HH
