#include "txn/engine.hh"

#include <algorithm>
#include <cstring>

namespace slpmt
{

TxnEngine::TxnEngine(const SchemeConfig &scheme, LoggingStyle style,
                     const AddressMap &map, CacheHierarchy &hier,
                     PmDevice &pm, StatsRegistry &stats, Addr log_base,
                     Bytes log_size, std::uint64_t &seq_counter,
                     std::uint64_t &crash_countdown)
    : schemeCfg(scheme),
      loggingStyle(style),
      addrMap(map),
      hier(hier),
      pm(pm),
      logBuf(stats),
      undoLog(pm, log_base, log_size, stats),
      ids(scheme.numTxnIds),
      idState(scheme.numTxnIds),
      seqCounter(seq_counter),
      crashCountdown(crash_countdown),
      statTxns(stats.counter("txn.begun")),
      statCommits(stats.counter("txn.committed")),
      statAborts(stats.counter("txn.aborted")),
      statLoads(stats.counter("txn.loads")),
      statStores(stats.counter("txn.stores")),
      statStoreTs(stats.counter("txn.storeTs")),
      statLogRecords(stats.counter("txn.logRecordsCreated")),
      statLinesPersistedAtCommit(stats.counter("txn.commitLinePersists")),
      statLazyLinesDeferred(stats.counter("txn.lazyLinesDeferred")),
      statLazyForcedPersists(stats.counter("txn.lazyForcedPersists")),
      statSigHits(stats.counter("txn.signatureHits")),
      statIdReclaims(stats.counter("txn.idReclaims")),
      statRecoverReplays(stats.counter("txn.recoverRecordsApplied")),
      statLazyDrainSigHit(stats.counter("txn.lazyDrain.sigHit")),
      statLazyDrainLineOwner(stats.counter("txn.lazyDrain.lineOwner")),
      statLazyDrainIdWrap(stats.counter("txn.lazyDrain.idWrap")),
      statLazyDrainEviction(stats.counter("txn.lazyDrain.eviction")),
      statLazyDrainExplicit(stats.counter("txn.lazyDrain.explicit")),
      statLazyDrainRemoteSigHit(
          stats.counter("txn.lazyDrain.remoteSigHit")),
      statLazyDrainRemoteIdObserved(
          stats.counter("txn.lazyDrain.remoteIdObserved")),
      statLazyStoreBytes(stats.counter("txn.lazyStoreBytes")),
      statLogFreeStoreBytes(stats.counter("txn.logFreeStoreBytes")),
      statLogFreeWordsElided(stats.counter("txn.logFreeWordsElided")),
      statCommitCycles(stats.histogram(
          "txn.commitCycles", {100, 300, 1000, 3000, 10000, 100000})),
      statStoreBytes(
          stats.histogram("txn.storeBytes", {8, 16, 64, 256, 1024}))
{
    logBuf.setSink(this);
    hier.setEvictionClient(this);
    hier.setSpeculativeRounding(scheme.speculativeRounding);
}

// ---------------------------------------------------------------------
// Transaction control
// ---------------------------------------------------------------------

void
TxnEngine::txBegin()
{
    panicIfNot(!inTxn, "nested durable transactions are not supported");

    // The next circle slot is still held: reclaim it, persisting the
    // lazy data of that transaction and all earlier ones first
    // (Section III-C2).
    if (!ids.hasFree()) {
        statIdReclaims++;
        clock += persistLazyThrough(ids.blockingId(), clock,
                                    statLazyDrainIdWrap);
    }

    curId = ids.allocate();
    curSeq = ++seqCounter;
    idState[curId].signature.clear();
    idState[curId].txnSeq = curSeq;
    idState[curId].lazyOutstanding = false;
    redoWriteSet.clear();
    redoEvicted.clear();
    inTxn = true;
    statTxns++;
    clock += costs.txBegin;
}

void
TxnEngine::txCommit()
{
    panicIfNot(inTxn, "commit outside a transaction");
    Cycles c = costs.txCommit;
    if (loggingStyle == LoggingStyle::Undo)
        c += commitUndo(clock + c);
    else
        c += commitRedo(clock + c);
    inTxn = false;
    statCommits++;
    statCommitCycles.record(c);
    clock += c;
}

std::vector<Addr>
TxnEngine::sortedWriteSet() const
{
    // The hash set's iteration order is unspecified; every walk that
    // charges cycles or touches PM must use this ascending-address
    // order — the one the previous std::set produced — so reports
    // stay byte-identical (determinism rule).
    std::vector<Addr> order(redoWriteSet.begin(), redoWriteSet.end());
    std::sort(order.begin(), order.end());
    return order;
}

Cycles
TxnEngine::commitUndo(Cycles when)
{
    Cycles c = 0;

    // Discard buffered records that belong to lazily persistent cache
    // lines: if such a line is still cached its log record never needs
    // to reach PM (Section III-B2).
    if (schemeCfg.allowLazy) {
        logBuf.discardIf([&](Addr line_addr) {
            const CacheLine *line = hier.findPrivate(line_addr);
            return line && line->txnSeq == curSeq &&
                   line->txnId == curId && !line->persistBit;
        });
    }

    // Figure 4, undo ordering: log records reach PM before logged
    // cache lines. The WPQ is the persistence boundary, so draining
    // the buffer first establishes the order.
    c += logBuf.drainAll(when + c);

    // Persist every private line the transaction marked eager.
    bool lazy_left = false;
    hier.forEachPrivate([&](CacheLine &line) {
        if (line.txnId != curId || line.txnSeq != curSeq)
            return;
        if (line.persistBit) {
            const PersistKind kind = line.logBits
                                         ? PersistKind::LoggedLine
                                         : PersistKind::LogFreeLine;
            c += hier.persistPrivateLine(line, kind, when + c);
            c += costs.commitPersistAck;
            line.clearTxnMeta();
            hier.noteMetaUpdate(line);
            statLinesPersistedAtCommit++;
        } else {
            lazy_left = true;
            statLazyLinesDeferred++;
        }
    });

    // The transaction's effects are durable (or recoverable): truncate
    // the undo log.
    c += undoLog.truncate(when + c, curSeq);

    if (lazy_left) {
        idState[curId].lazyOutstanding = true;
    } else {
        idState[curId].signature.clear();
        ids.release(curId);
    }
    return c;
}

Cycles
TxnEngine::commitRedo(Cycles when)
{
    Cycles c = 0;

    // Figure 4, redo ordering: log-free lines must be durable before
    // any logged line is (their recovery may depend on pre-commit
    // values of the logged data).
    hier.forEachPrivate([&](CacheLine &line) {
        if (line.txnId != curId || line.txnSeq != curSeq)
            return;
        if (line.persistBit && !line.logBits) {
            c += hier.persistPrivateLine(line, PersistKind::LogFreeLine,
                                         when + c);
            c += costs.commitPersistAck;
            line.clearTxnMeta();
            hier.noteMetaUpdate(line);
            statLinesPersistedAtCommit++;
        }
    });

    // Refresh buffered redo records from the cache so they carry the
    // transaction's final values, then drain them and append the
    // commit marker.
    logBuf.forEachRecord([&](LogRecord &rec) {
        if (rec.txnSeq != curSeq)
            return;
        if (const CacheLine *line = hier.findPrivate(rec.base)) {
            std::memcpy(rec.data.data(),
                        line->data.data() + lineOffset(rec.base),
                        rec.spanBytes());
        }
    });
    c += logBuf.drainAll(when + c);
    LogRecord marker;
    marker.base = undoLog.base();  // sentinel: a log never logs itself
    marker.words = 1;
    c += undoLog.append(marker, when + c, curSeq);

    // In-place updates of the logged data (write-back from the log).
    for (Addr line_addr : sortedWriteSet()) {
        CacheLine *line = hier.findPrivate(line_addr);
        if (line && line->txnId == curId && line->txnSeq == curSeq) {
            c += hier.persistPrivateLine(*line, PersistKind::LoggedLine,
                                         when + c);
            c += costs.commitPersistAck;
            line->clearTxnMeta();
            hier.noteMetaUpdate(*line);
            statLinesPersistedAtCommit++;
        } else {
            // Evicted during the transaction: refetch, restore the
            // stashed image if the shared cache dropped the clean
            // copy, and persist the final value.
            AccessResult res = hier.access(line_addr, false, when + c);
            c += res.latency;
            restoreRedoEvicted(*res.line);
            c += hier.persistPrivateLine(*res.line,
                                         PersistKind::LoggedLine,
                                         when + c);
            res.line->clearTxnMeta();
            hier.noteMetaUpdate(*res.line);
            statLinesPersistedAtCommit++;
        }
    }

    c += undoLog.truncate(when + c, curSeq);

    // Lazy lines (persist bit unset) stay volatile past the commit and
    // keep the transaction ID live for working-set tracking, exactly
    // as in undo mode.
    bool lazy_left = false;
    hier.forEachPrivate([&](CacheLine &line) {
        if (line.txnId == curId && line.txnSeq == curSeq)
            lazy_left = true;
    });
    if (lazy_left) {
        idState[curId].lazyOutstanding = true;
    } else {
        idState[curId].signature.clear();
        ids.release(curId);
    }
    redoWriteSet.clear();
    redoEvicted.clear();
    return c;
}

void
TxnEngine::restoreRedoEvicted(CacheLine &line)
{
    const auto it = redoEvicted.find(line.tag);
    if (it == redoEvicted.end())
        return;
    line.data = it->second;
    line.dirty = true;
    line.state = MesiState::Modified;
    line.txnId = curId;
    line.txnSeq = curSeq;
    line.persistBit = true;
    hier.noteMetaUpdate(line);
    redoEvicted.erase(it);
}

void
TxnEngine::txAbort()
{
    panicIfNot(inTxn, "abort outside a transaction");
    statAborts++;

    // (1) Clear the log buffer and the signature.
    logBuf.clear();
    idState[curId].signature.clear();

    // Invalidate the cache lines the transaction updated so the
    // volatile updates disappear (Section V-B).
    std::vector<Addr> to_invalidate;
    hier.forEachPrivate([&](CacheLine &line) {
        if (line.txnId == curId && line.txnSeq == curSeq)
            to_invalidate.push_back(line.tag);
    });
    for (Addr addr : to_invalidate)
        hier.invalidateLineEverywhere(addr);

    // Redo write-set lines whose private eviction was suppressed sit
    // in the shared cache as clean copies of the aborted data; drop
    // them too so post-abort reads refetch the old values from PM.
    for (Addr addr : sortedWriteSet())
        hier.invalidateLineEverywhere(addr);

    // (2) Kernel-space replay of the undo log onto PM; a redo log is
    // simply discarded (nothing of the transaction reached PM).
    if (loggingStyle == LoggingStyle::Undo)
        undoLog.applyUndo();
    else
        undoLog.discard();

    // (3) User-specified recovery revokes log-free updates; that is
    // the caller's responsibility after this returns.
    ids.release(curId);
    redoWriteSet.clear();
    redoEvicted.clear();
    inTxn = false;
    clock += costs.txCommit;
}

// ---------------------------------------------------------------------
// Data path
// ---------------------------------------------------------------------

void
TxnEngine::load(Addr addr, void *out, std::size_t len)
{
    statLoads++;
    auto *dst = static_cast<std::uint8_t *>(out);
    Cycles c = 0;
    while (len > 0) {
        const std::size_t off = lineOffset(addr);
        const std::size_t chunk = std::min(len, cacheLineSize - off);

        AccessResult res = hier.access(addr, false, clock + c);
        c += res.latency;
        if (loggingStyle == LoggingStyle::Redo && inTxn)
            restoreRedoEvicted(*res.line);

        if (addrMap.isPm(addr)) {
            // Loads check the line's owning transaction ID: hitting an
            // earlier transaction's lazy line forces its data out
            // (Section III-C3).
            c += checkLineOwner(*res.line, clock + c);
            if (inTxn)
                idState[curId].signature.insert(
                    probeForLine(lineBase(addr)));
        }

        std::memcpy(dst, res.line->data.data() + off, chunk);
        addr += chunk;
        dst += chunk;
        len -= chunk;
    }
    clock += c;
}

void
TxnEngine::storeT(Addr addr, const void *src, std::size_t len,
                  StoreFlags flags)
{
    if (crashCountdown > 0 && --crashCountdown == 0) {
        crash();
        throw CrashInjected();
    }

    const bool is_storeT = flags.lazy || flags.logFree;
    if (is_storeT)
        statStoreTs++;
    else
        statStores++;
    statStoreBytes.record(len);

    // A disabled feature turns the operand off (the log-free flag of
    // Figure 2 "disables the semantic of storeT"); outside a durable
    // transaction storeT degenerates to store.
    const bool lazy = flags.lazy && schemeCfg.allowLazy && inTxn;
    const bool log_free = flags.logFree && schemeCfg.allowLogFree && inTxn;
    if (lazy)
        statLazyStoreBytes += len;
    if (log_free)
        statLogFreeStoreBytes += len;

    auto *from = static_cast<const std::uint8_t *>(src);
    Cycles c = 0;
    while (len > 0) {
        const std::size_t off = lineOffset(addr);
        const std::size_t chunk = std::min(len, cacheLineSize - off);
        c += storeSegment(addr, from, chunk, lazy, log_free, clock + c);
        addr += chunk;
        from += chunk;
        len -= chunk;
    }
    clock += c;
}

Cycles
TxnEngine::storeSegment(Addr addr, const void *src, std::size_t len,
                        bool lazy, bool log_free, Cycles when)
{
    Cycles c = 0;

    if (!addrMap.isPm(addr)) {
        // Volatile data: a plain cached write.
        AccessResult res = hier.access(addr, true, when);
        std::memcpy(res.line->data.data() + lineOffset(addr), src, len);
        return res.latency;
    }

    // Store-triggered coherence event: check committed transactions'
    // working-set signatures (Section III-C3).
    c += checkSignaturesOnWrite(addr, when + c);

    AccessResult res = hier.access(addr, true, when + c);
    c += res.latency;
    CacheLine &line = *res.line;
    if (loggingStyle == LoggingStyle::Redo && inTxn)
        restoreRedoEvicted(line);

    // Writing a line owned by an earlier transaction forces that
    // transaction's lazy data out before the update proceeds.
    c += checkLineOwner(line, when + c);

    if (inTxn) {
        // Table I: the persist bit is set unless the store is lazy; a
        // lazy store does not clear an already-set persist bit
        // (Section III-C1: stores cancel lazy persistency, not the
        // other way around).
        if (!lazy)
            line.persistBit = true;

        // Undo records carry pre-store values: log before the write.
        if (!log_free && loggingStyle == LoggingStyle::Undo) {
            c += createLogRecords(line, addr, len, when + c);
            c += schemeCfg.storeFenceCycles;
        } else if (log_free) {
            statLogFreeWordsElided +=
                wordIndex(addr + len - 1) - wordIndex(addr) + 1;
        }

        line.txnId = curId;
        line.txnSeq = curSeq;
        idState[curId].signature.insert(probeForLine(lineBase(addr)));
    }

    std::memcpy(line.data.data() + lineOffset(addr), src, len);
    line.dirty = true;
    line.state = MesiState::Modified;

    // Redo records carry the new values: log after the write.
    if (inTxn && !log_free && loggingStyle == LoggingStyle::Redo) {
        c += redoLogSpan(line, addr, len, when + c);
        c += schemeCfg.storeFenceCycles;
        redoWriteSet.insert(lineBase(addr));
    }
    if (inTxn)
        hier.noteMetaUpdate(line);
    return c;
}

Cycles
TxnEngine::createLogRecords(CacheLine &line, Addr addr, std::size_t len,
                            Cycles when)
{
    Cycles c = 0;
    const std::size_t first_word = wordIndex(addr);
    const std::size_t last_word = wordIndex(addr + len - 1);

    if (!schemeCfg.fineGrainLogging) {
        // Line-granularity logging (ATOM, SLPMT-CL): one record for
        // the whole line on its first logged store.
        if (line.logBits == 0) {
            statLogRecords++;
            if (schemeCfg.useLogBuffer) {
                c += logBuf.insertLine(line.tag, line.data.data(), curId,
                                       curSeq, when);
            } else {
                LogRecord rec;
                rec.base = line.tag;
                rec.words = wordsPerLine;
                rec.txnId = curId;
                rec.txnSeq = curSeq;
                std::memcpy(rec.data.data(), line.data.data(),
                            cacheLineSize);
                c += undoLog.append(rec, when, curSeq);
            }
            line.logBits = 0xFF;
        }
        return c;
    }

    // Word-granularity logging: log each still-unlogged word the store
    // touches, with its pre-store value.
    if (schemeCfg.useLogBuffer) {
        for (std::size_t w = first_word; w <= last_word; ++w) {
            if (line.logBits & (1U << w))
                continue;
            statLogRecords++;
            c += logBuf.insertWord(line.tag + w * wordSize,
                                   line.data.data() + w * wordSize,
                                   curId, curSeq, when + c);
            line.logBits |= static_cast<std::uint8_t>(1U << w);
        }
        return c;
    }

    // EDE: no cross-store buffer; coalesce the contiguous unlogged
    // words of this one store into records and persist them at once.
    std::size_t w = first_word;
    while (w <= last_word) {
        if (line.logBits & (1U << w)) {
            ++w;
            continue;
        }
        std::size_t run_end = w;
        while (run_end + 1 <= last_word &&
               !(line.logBits & (1U << (run_end + 1))))
            ++run_end;
        const std::size_t words = run_end - w + 1;
        c += appendSpanEager(line.tag + w * wordSize, words,
                             line.data.data() + w * wordSize, when + c);
        for (std::size_t i = w; i <= run_end; ++i)
            line.logBits |= static_cast<std::uint8_t>(1U << i);
        w = run_end + 1;
    }
    return c;
}

Cycles
TxnEngine::appendSpanEager(Addr base, std::size_t words,
                           const std::uint8_t *data, Cycles when)
{
    // The wire format encodes power-of-two record sizes; split a run
    // greedily (traffic difference is only in record headers).
    Cycles c = 0;
    while (words > 0) {
        std::size_t take = 1;
        while (take * 2 <= words && take * 2 <= wordsPerLine)
            take *= 2;
        LogRecord rec;
        rec.base = base;
        rec.words = static_cast<std::uint8_t>(take);
        rec.txnId = curId;
        rec.txnSeq = curSeq;
        std::memcpy(rec.data.data(), data, take * wordSize);
        statLogRecords++;
        c += schemeCfg.softwareLogCycles;
        c += undoLog.append(rec, when + c, curSeq,
                            schemeCfg.softwareLogHeaderBytes);
        base += take * wordSize;
        data += take * wordSize;
        words -= take;
    }
    return c;
}

Cycles
TxnEngine::redoLogSpan(CacheLine &line, Addr addr, std::size_t len,
                       Cycles when)
{
    // Redo mode: record the just-written (new) values. A word whose
    // record is still buffered keeps its log bit and is refreshed from
    // the cache at commit; a word whose record was force-drained had
    // its log bit cleared in persistRecord(), so a re-store creates a
    // fresh, later record and forward replay makes the last one win.
    Cycles c = 0;
    const std::size_t first_word = wordIndex(addr);
    const std::size_t last_word = wordIndex(addr + len - 1);
    for (std::size_t w = first_word; w <= last_word; ++w) {
        if (line.logBits & (1U << w))
            continue;
        statLogRecords++;
        c += logBuf.insertWord(line.tag + w * wordSize,
                               line.data.data() + w * wordSize, curId,
                               curSeq, when + c);
        line.logBits |= static_cast<std::uint8_t>(1U << w);
    }
    return c;
}

// ---------------------------------------------------------------------
// Lazy persistency
// ---------------------------------------------------------------------

Cycles
TxnEngine::checkSignaturesOnWrite(Addr addr, Cycles when)
{
    // The checks themselves are off the critical path (Section
    // III-C3); only forced persists cost time. All signatures share
    // the hash functions, so the address is hashed once and the probe
    // tested against every candidate.
    Cycles c = 0;
    // Copy out of the memo: the forced-persist calls below can reach
    // stores that refresh it while this scan still needs the probe.
    const Signature::Probe probe = probeForLine(lineBase(addr));
    bool again = true;
    while (again) {
        again = false;
        for (std::uint8_t id : ids.live()) {
            if (inTxn && id == curId)
                continue;
            if (!idState[id].lazyOutstanding)
                continue;
            if (idState[id].signature.mightContain(probe)) {
                statSigHits++;
                c += costs.lazyScan;
                c += persistLazyThrough(id, when + c,
                                        remoteObserving
                                            ? statLazyDrainRemoteSigHit
                                            : statLazyDrainSigHit);
                again = true;  // the live list changed; rescan
                break;
            }
        }
    }
    return c;
}

Cycles
TxnEngine::checkLineOwnerSlow(const CacheLine &line, Cycles when)
{
    const std::uint8_t owner = line.txnId;
    if (inTxn && owner == curId && line.txnSeq == curSeq)
        return 0;
    if (owner >= idState.size() || idState[owner].txnSeq != line.txnSeq ||
        !idState[owner].lazyOutstanding)
        return 0;  // stale tag: owner already fully persisted
    return costs.lazyScan +
           persistLazyThrough(owner, when,
                              remoteObserving
                                  ? statLazyDrainRemoteIdObserved
                                  : statLazyDrainLineOwner);
}

Cycles
TxnEngine::persistLazyThrough(std::uint8_t id, Cycles when,
                              StatsRegistry::Counter &reason)
{
    // Persist all data owned by transactions up to and including the
    // target, oldest first (Section III-C2).
    Cycles c = 0;
    std::vector<std::uint8_t> order(ids.live().begin(), ids.live().end());
    for (std::uint8_t live_id : order) {
        if (inTxn && live_id == curId)
            continue;
        c += persistLazyOf(live_id, when + c, reason);
        if (live_id == id)
            break;
    }
    return c;
}

Cycles
TxnEngine::persistLazyOf(std::uint8_t id, Cycles when,
                         StatsRegistry::Counter &reason)
{
    Cycles c = 0;
    const std::uint64_t seq = idState[id].txnSeq;
    hier.forEachPrivate([&](CacheLine &line) {
        if (line.txnId != id || line.txnSeq != seq)
            return;
        if (line.dirty) {
            // Issued by background hardware, off the critical path
            // (Section III-C3): no commit ACK, no WPQ-full stall.
            c += hier.persistPrivateLine(line, PersistKind::LazyLine,
                                         when + c, /*sync=*/false);
            statLazyForcedPersists++;
            reason++;
        }
        line.clearTxnMeta();
        hier.noteMetaUpdate(line);
    });
    idState[id].signature.clear();
    idState[id].lazyOutstanding = false;
    ids.release(id);
    return c;
}

void
TxnEngine::persistAllLazy()
{
    Cycles c = 0;
    std::vector<std::uint8_t> order(ids.live().begin(), ids.live().end());
    for (std::uint8_t id : order) {
        if (inTxn && id == curId)
            continue;
        c += persistLazyOf(id, clock + c, statLazyDrainExplicit);
    }
    clock += c;
}

std::size_t
TxnEngine::lazyOutstandingCount() const
{
    std::size_t n = 0;
    for (const auto &st : idState)
        n += st.lazyOutstanding ? 1 : 0;
    return n;
}

// ---------------------------------------------------------------------
// Coherence events from other cores
// ---------------------------------------------------------------------

bool
TxnEngine::remoteObserve(Addr addr, bool is_write)
{
    remoteObserving = true;
    // A remote store probes the working-set signatures exactly like a
    // local one (the directory broadcasts the address); loads only
    // meet the per-line txn-ID tag.
    if (is_write)
        clock += checkSignaturesOnWrite(addr, clock);
    bool conflict = false;
    if (CacheLine *line = hier.findPrivate(addr)) {
        if (inTxn && line->txnId == curId && line->txnSeq == curSeq)
            conflict = true;  // the machine aborts this engine
        else
            clock += checkLineOwner(*line, clock);
    }
    remoteObserving = false;
    return conflict;
}

// ---------------------------------------------------------------------
// Eviction client and drain sink
// ---------------------------------------------------------------------

Cycles
TxnEngine::evictingPrivateLine(CacheLine &line, Cycles when)
{
    Cycles c = 0;

    // Persist the line's log records before its data can leave the
    // private caches (the undo "steal" rule, Section III-A). The
    // buffer is searched by address unconditionally: log-bit
    // aggregation may have zeroed a partially-logged group (Section
    // III-B1) while its word records still sit in the buffer.
    c += logBuf.flushLine(line.tag, when);

    // Redo (no-steal): uncommitted logged data must not reach PM.
    // Tested against the write set, not the line's log bits — the
    // flushLine() above just drained this line's records, which
    // clears its log bits. The records are durable, but the line
    // continues into the shared cache as clean and may be dropped
    // there, so its image is stashed and restored on the next access
    // (a hardware redo design would service such reads from the log).
    if (loggingStyle == LoggingStyle::Redo && inTxn &&
        line.txnId == curId && line.txnSeq == curSeq &&
        redoWriteSet.count(line.tag)) {
        redoEvicted[line.tag] = line.data;
        line.dirty = false;
        line.clearTxnMeta();
        hier.noteMetaUpdate(line);
        return c;
    }

    if (line.persistBit) {
        const PersistKind kind = line.logBits ? PersistKind::LoggedLine
                                              : PersistKind::LogFreeLine;
        c += hier.persistPrivateLine(line, kind, when + c);
    } else if (line.txnId != noTxnId && line.dirty) {
        // A lazy line overflowing the private caches is persisted on
        // the way out: the working-set scan that would later force it
        // only covers the private caches.
        c += hier.persistPrivateLine(line, PersistKind::LazyLine,
                                     when + c);
        statLazyForcedPersists++;
        statLazyDrainEviction++;
    }
    line.clearTxnMeta();
    hier.noteMetaUpdate(line);
    return c;
}

std::pair<Cycles, std::uint8_t>
TxnEngine::roundUpLogBits(CacheLine &line, std::uint8_t missing_words,
                          Cycles when)
{
    // Speculative record creation (Section III-B1): log clean words so
    // the aggregated L2 bit can stay set. Only meaningful for lines of
    // the in-flight transaction in undo mode.
    if (!inTxn || loggingStyle != LoggingStyle::Undo ||
        line.txnId != curId || line.txnSeq != curSeq ||
        !schemeCfg.fineGrainLogging || !schemeCfg.useLogBuffer)
        return {0, 0};

    Cycles c = 0;
    std::uint8_t rounded = 0;
    for (std::size_t w = 0; w < wordsPerLine; ++w) {
        if (!(missing_words & (1U << w)))
            continue;
        statLogRecords++;
        c += logBuf.insertWord(line.tag + w * wordSize,
                               line.data.data() + w * wordSize, curId,
                               curSeq, when + c);
        rounded |= static_cast<std::uint8_t>(1U << w);
    }
    return {c, rounded};
}

Cycles
TxnEngine::persistRecord(const LogRecord &rec, Cycles when)
{
    if (loggingStyle == LoggingStyle::Redo && inTxn &&
        rec.txnSeq == curSeq) {
        // A drained redo record freezes its value in the log; clear
        // the covered log bits so later stores create fresh records
        // (forward replay takes the last).
        if (CacheLine *line = hier.findPrivate(rec.base)) {
            if (line->txnId == curId && line->txnSeq == curSeq) {
                for (std::size_t w = 0; w < rec.words; ++w) {
                    const std::size_t idx = wordIndex(rec.base) + w;
                    line->logBits &=
                        static_cast<std::uint8_t>(~(1U << idx));
                }
                hier.noteMetaUpdate(*line);
            }
        }
    }
    return undoLog.append(rec, when, rec.txnSeq);
}

// ---------------------------------------------------------------------
// Crash and recovery
// ---------------------------------------------------------------------

void
TxnEngine::crash()
{
    hier.crash();
    logBuf.clear();
    undoLog.crash();
    ids.reset();
    for (auto &st : idState) {
        st.signature.clear();
        st.lazyOutstanding = false;
        st.txnSeq = 0;
    }
    redoWriteSet.clear();
    redoEvicted.clear();
    inTxn = false;
    curId = noTxnId;
    pm.crash();
}

std::size_t
TxnEngine::recover()
{
    if (loggingStyle == LoggingStyle::Undo) {
        const std::size_t applied = undoLog.applyUndo();
        statRecoverReplays += applied;
        return applied;
    }

    // Redo: a commit marker (sentinel base) means the transaction
    // committed and its records must be replayed forward; otherwise
    // the log is discarded.
    const std::vector<LogRecord> records = undoLog.scanValid();
    const bool committed =
        std::any_of(records.begin(), records.end(),
                    [&](const LogRecord &r) {
                        return r.base == undoLog.base();
                    });
    std::size_t applied = 0;
    if (committed) {
        for (const auto &rec : records) {
            if (rec.base == undoLog.base())
                continue;
            pm.poke(rec.base, rec.data.data(), rec.spanBytes());
            ++applied;
        }
    }
    undoLog.discard();
    statRecoverReplays += applied;
    return applied;
}

// ---------------------------------------------------------------------
// Checkpointing
// ---------------------------------------------------------------------

void
TxnEngine::saveState(BlobWriter &w) const
{
    w.u<Cycles>(clock);
    w.b(inTxn);
    w.u<std::uint8_t>(curId);
    w.u<std::uint64_t>(curSeq);

    w.u<std::uint64_t>(idState.size());
    for (const auto &st : idState) {
        st.signature.saveState(w);
        w.u<std::uint64_t>(st.txnSeq);
        w.b(st.lazyOutstanding);
    }
    ids.saveState(w);
    logBuf.saveState(w);
    undoLog.saveState(w);

    // Hash containers: serialize in sorted-address order (the
    // determinism rule) so identical machine states always produce
    // identical blobs.
    std::vector<Addr> write_set(redoWriteSet.begin(),
                                redoWriteSet.end());
    std::sort(write_set.begin(), write_set.end());
    w.u<std::uint64_t>(write_set.size());
    for (Addr a : write_set)
        w.u<Addr>(a);

    std::vector<Addr> evicted;
    evicted.reserve(redoEvicted.size());
    for (const auto &kv : redoEvicted)
        evicted.push_back(kv.first);
    std::sort(evicted.begin(), evicted.end());
    w.u<std::uint64_t>(evicted.size());
    for (Addr a : evicted) {
        w.u<Addr>(a);
        const auto &img = redoEvicted.at(a);
        w.bytes(img.data(), img.size());
    }
}

void
TxnEngine::restoreState(BlobReader &r)
{
    clock = r.u<Cycles>();
    inTxn = r.b();
    curId = r.u<std::uint8_t>();
    curSeq = r.u<std::uint64_t>();

    const std::size_t n_ids = r.count(1);
    if (n_ids != idState.size())
        throw CheckpointError("txn ID state count mismatch");
    for (auto &st : idState) {
        st.signature.restoreState(r);
        st.txnSeq = r.u<std::uint64_t>();
        st.lazyOutstanding = r.b();
    }
    ids.restoreState(r);
    logBuf.restoreState(r);
    undoLog.restoreState(r);

    redoWriteSet.clear();
    const std::size_t n_ws = r.count(sizeof(Addr));
    for (std::size_t i = 0; i < n_ws; ++i)
        redoWriteSet.insert(r.u<Addr>());

    redoEvicted.clear();
    const std::size_t n_ev = r.count(sizeof(Addr));
    for (std::size_t i = 0; i < n_ev; ++i) {
        const Addr a = r.u<Addr>();
        auto &img = redoEvicted[a];
        r.bytes(img.data(), img.size());
    }
}

} // namespace slpmt
