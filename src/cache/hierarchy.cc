#include "cache/hierarchy.hh"

#include <cstring>

namespace slpmt
{

CacheHierarchy::CacheHierarchy(const HierarchyConfig &cfg,
                               const AddressMap &map, PmDevice &pm,
                               DramDevice &dram, StatsRegistry &stats,
                               Cache &shared_l3)
    : addrMap(map),
      pm(pm),
      dram(dram),
      l1Cache(cfg.l1),
      l2Cache(cfg.l2),
      l3Cache(shared_l3),
      statL1Hits(stats.counter("cache.l1Hits")),
      statL1Misses(stats.counter("cache.l1Misses")),
      statL2Hits(stats.counter("cache.l2Hits")),
      statL2Misses(stats.counter("cache.l2Misses")),
      statL3Hits(stats.counter("cache.l3Hits")),
      statL3Misses(stats.counter("cache.l3Misses")),
      statWritebacks(stats.counter("cache.writebacks")),
      statPrivateEvictions(stats.counter("cache.privateEvictions")),
      statLogBitAggrLossy(stats.counter("cache.logBitAggrLossy")),
      statMetaWalks(stats.counter("cache.metaWalks"))
{
}

AccessResult
CacheHierarchy::accessMiss(Addr addr, bool is_write, Cycles now)
{
    addrMap.checkMapped(addr);
    Cycles latency = l1Cache.hitLatency();
    statL1Misses++;

    latency += ensureInL2(addr, now);

    CacheLine *l2_line = l2Cache.find(addr);
    panicIfNot(l2_line != nullptr, "fill did not reach L2");
    CacheLine &l1_line = promoteToL1(*l2_line, now, latency);
    if (is_write) {
        l1_line.dirty = true;
        l1_line.state = MesiState::Modified;
    }
    return {&l1_line, latency};
}

Cycles
CacheHierarchy::ensureInL2(Addr addr, Cycles now)
{
    Cycles latency = l2Cache.hitLatency();
    if (l2Cache.find(addr)) {
        statL2Hits++;
        return latency;
    }
    statL2Misses++;
    latency += l3Cache.hitLatency();

    CacheLine *l3_line = l3Cache.find(addr);
    if (!l3_line) {
        statL3Misses++;
        // Fill L3 from the backing device.
        CacheLine &frame = l3Cache.victimFor(addr);
        if (frame.valid()) {
            CacheLine victim = frame;  // copy: eviction may recurse
            l3Cache.invalidateFrame(frame);
            latency += evictFromL3(victim, now);
        }
        l3Cache.fillFrame(frame, lineBase(addr), MesiState::Exclusive);
        frame.dirty = false;
        frame.clearTxnMeta();
        if (addrMap.isPm(addr))
            latency += pm.readLine(addr, frame.data.data());
        else
            latency += dram.readLine(addr, frame.data.data());
        l3Cache.touch(frame);
        l3_line = &frame;
    } else {
        statL3Hits++;
        l3Cache.touch(*l3_line);
    }

    // Fill L2 from L3. Metadata starts clear (Section III-B1).
    CacheLine &frame = l2Cache.victimFor(addr);
    if (frame.valid())
        latency += evictFromL2(frame, now);
    l2Cache.fillFrame(frame, lineBase(addr),
                      l3_line->state == MesiState::Modified
                          ? MesiState::Modified
                          : MesiState::Exclusive);
    frame.dirty = false;
    frame.clearTxnMeta();
    frame.data = l3_line->data;
    l2Cache.touch(frame);
    return latency;
}

CacheLine &
CacheHierarchy::promoteToL1(CacheLine &l2_line, Cycles now,
                            Cycles &latency)
{
    CacheLine &frame = l1Cache.victimFor(l2_line.tag);
    if (frame.valid())
        latency += evictFromL1(frame, now);

    l1Cache.fillFrame(frame, l2_line.tag, l2_line.state);
    frame.dirty = false;
    frame.data = l2_line.data;

    // Metadata moves up: replicate the coarse L2 log map (Figure 5).
    frame.persistBit = l2_line.persistBit;
    frame.logBits = replicateLogBits(l2_line.logBits);
    frame.txnId = l2_line.txnId;
    frame.txnSeq = l2_line.txnSeq;
    l2_line.clearTxnMeta();
    l1Cache.syncMetaIndex(frame);
    l2Cache.syncMetaIndex(l2_line);

    l1Cache.touch(frame);
    return frame;
}

Cycles
CacheHierarchy::evictFromL1(CacheLine &victim, Cycles now)
{
    Cycles latency = 0;
    CacheLine *l2_line = l2Cache.find(victim.tag);
    panicIfNot(l2_line != nullptr, "inclusion violated: L1 line not in L2");

    std::uint8_t log_bits = victim.logBits;
    if (speculativeRounding && evictClientObj) {
        // Offer partially-set 4-bit groups for speculative rounding.
        std::uint8_t missing = 0;
        const std::uint8_t lo = log_bits & 0x0F;
        const std::uint8_t hi = (log_bits >> 4) & 0x0F;
        if (lo != 0 && lo != 0x0F)
            missing |= static_cast<std::uint8_t>(~lo & 0x0F);
        if (hi != 0 && hi != 0x0F)
            missing |= static_cast<std::uint8_t>((~hi & 0x0F) << 4);
        if (missing) {
            auto [cycles, rounded] =
                roundUpFn(evictClientObj, victim, missing, now);
            latency += cycles;
            log_bits |= rounded;
        }
    }

    // Merge data and metadata down (aggregate by conjunction).
    if (replicateLogBits(aggregateLogBits(log_bits)) != log_bits)
        statLogBitAggrLossy++;
    l2_line->data = victim.data;
    l2_line->dirty = l2_line->dirty || victim.dirty;
    if (victim.dirty)
        l2_line->state = MesiState::Modified;
    l2_line->persistBit = victim.persistBit;
    l2_line->logBits = aggregateLogBits(log_bits);
    l2_line->txnId = victim.txnId;
    l2_line->txnSeq = victim.txnSeq;
    l2Cache.syncMetaIndex(*l2_line);

    l1Cache.invalidateFrame(victim);
    l1Cache.syncMetaIndex(victim);
    return latency;
}

Cycles
CacheHierarchy::evictFromL2(CacheLine &victim, Cycles now)
{
    Cycles latency = 0;

    // Inclusion: pull any fresher L1 copy down into this frame first.
    if (CacheLine *l1_copy = l1Cache.find(victim.tag))
        latency += evictFromL1(*l1_copy, now);

    // Lines overflowing the private caches lose their metadata; give
    // the transaction engine a chance to flush logs / persist first.
    if (evictClientObj &&
        (victim.persistBit || victim.logBits || victim.txnId != noTxnId)) {
        statPrivateEvictions++;
        latency += evictLineFn(evictClientObj, victim, now);
    }
    victim.clearTxnMeta();
    l2Cache.syncMetaIndex(victim);

    // Install into L3 (the copy may already exist — it usually does,
    // because fills pass through L3).
    CacheLine *l3_line = l3Cache.find(victim.tag);
    if (!l3_line) {
        CacheLine &frame = l3Cache.victimFor(victim.tag);
        if (frame.valid()) {
            CacheLine old = frame;
            l3Cache.invalidateFrame(frame);
            latency += evictFromL3(old, now);
        }
        l3Cache.fillFrame(frame, victim.tag, MesiState::Exclusive);
        frame.dirty = false;
        frame.clearTxnMeta();
        l3Cache.touch(frame);
        l3_line = &frame;
    }
    l3_line->data = victim.data;
    l3_line->dirty = l3_line->dirty || victim.dirty;
    if (victim.dirty)
        l3_line->state = MesiState::Modified;

    l2Cache.invalidateFrame(victim);
    return latency;
}

Cycles
CacheHierarchy::foldPrivateInto(CacheLine &victim, Cycles now)
{
    // Inclusion: fold in private copies. The L2 eviction would try to
    // reinstall into L3; we work on a detached copy, so find() misses
    // and would allocate — avoid that by merging manually.
    Cycles latency = 0;
    if (CacheLine *l2_copy = l2Cache.find(victim.tag)) {
        if (CacheLine *l1_copy = l1Cache.find(victim.tag))
            latency += evictFromL1(*l1_copy, now);
        if (evictClientObj && (l2_copy->persistBit || l2_copy->logBits ||
                               l2_copy->txnId != noTxnId)) {
            statPrivateEvictions++;
            latency += evictLineFn(evictClientObj, *l2_copy, now);
        }
        victim.data = l2_copy->data;
        victim.dirty = victim.dirty || l2_copy->dirty;
        l2Cache.invalidateFrame(*l2_copy);
        l2Cache.syncMetaIndex(*l2_copy);
    }
    return latency;
}

Cycles
CacheHierarchy::evictFromL3(CacheLine &victim, Cycles now)
{
    Cycles latency = foldPrivateInto(victim, now);
    if (remoteFolderObj)
        latency += foldRemoteFn(remoteFolderObj, *this, victim, now);

    if (victim.dirty) {
        statWritebacks++;
        latency += writebackToDevice(victim, now);
    }
    return latency;
}

Cycles
CacheHierarchy::surrenderPrivate(Addr addr, Cycles now)
{
    // evictFromL2 pulls any L1 copy down first, runs the eviction
    // client on metadata-bearing lines, merges the data into the
    // shared L3 and invalidates the private frames — exactly the
    // coherence transfer semantics.
    if (CacheLine *l2_line = l2Cache.find(addr))
        return evictFromL2(*l2_line, now);
    return 0;
}

Cycles
CacheHierarchy::writebackToDevice(const CacheLine &line, Cycles now)
{
    if (addrMap.isPm(line.tag)) {
        return pm.persistLine(line.tag, line.data.data(), now,
                              PersistKind::Writeback, line.txnSeq)
            .issueCycles;
    }
    return dram.writeLine(line.tag, line.data.data());
}

Cycles
CacheHierarchy::readBytes(Addr addr, void *out, std::size_t len,
                          Cycles now)
{
    auto *dst = static_cast<std::uint8_t *>(out);
    Cycles latency = 0;
    while (len > 0) {
        const std::size_t off = lineOffset(addr);
        const std::size_t chunk = std::min(len, cacheLineSize - off);
        AccessResult res = access(addr, false, now + latency);
        std::memcpy(dst, res.line->data.data() + off, chunk);
        latency += res.latency;
        addr += chunk;
        dst += chunk;
        len -= chunk;
    }
    return latency;
}

Cycles
CacheHierarchy::writeBytes(Addr addr, const void *src, std::size_t len,
                           Cycles now)
{
    auto *from = static_cast<const std::uint8_t *>(src);
    Cycles latency = 0;
    while (len > 0) {
        const std::size_t off = lineOffset(addr);
        const std::size_t chunk = std::min(len, cacheLineSize - off);
        AccessResult res = access(addr, true, now + latency);
        std::memcpy(res.line->data.data() + off, from, chunk);
        latency += res.latency;
        addr += chunk;
        from += chunk;
        len -= chunk;
    }
    return latency;
}

CacheLine *
CacheHierarchy::findPrivate(Addr addr)
{
    if (CacheLine *line = l1Cache.find(addr))
        return line;
    return l2Cache.find(addr);
}

void
CacheHierarchy::auditMetaIndex() const
{
    std::string why;
    if (!l1Cache.checkMetaIndex(&why) || !l2Cache.checkMetaIndex(&why))
        panic("metadata line index diverged from full scan: " + why);
    if (!l1Cache.checkProbeKeys(&why) || !l2Cache.checkProbeKeys(&why) ||
        !l3Cache.checkProbeKeys(&why))
        panic("probe keys diverged from frame state: " + why);
}

Cycles
CacheHierarchy::persistPrivateLine(CacheLine &line, PersistKind kind,
                                   Cycles now, bool sync)
{
    const Cycles latency =
        pm.persistLine(line.tag, line.data.data(), now, kind,
                       line.txnSeq, sync)
            .issueCycles;
    line.dirty = false;

    // Every lower-level copy now matches the durable image; sync them
    // so they are not written back again later. A valid L1 frame is
    // findable by construction, so ownership is the whole test.
    const bool in_l1 = l1Cache.owns(&line);
    if (in_l1) {
        if (CacheLine *l2_copy = l2Cache.find(line.tag)) {
            l2_copy->data = line.data;
            l2_copy->dirty = false;
        }
    }
    if (CacheLine *l3_copy = l3Cache.find(line.tag)) {
        l3_copy->data = line.data;
        l3_copy->dirty = false;
    }
    return latency;
}

void
CacheHierarchy::invalidateLineEverywhere(Addr addr)
{
    if (CacheLine *line = l1Cache.find(addr)) {
        l1Cache.invalidateFrame(*line);
        l1Cache.syncMetaIndex(*line);
    }
    if (CacheLine *line = l2Cache.find(addr)) {
        l2Cache.invalidateFrame(*line);
        l2Cache.syncMetaIndex(*line);
    }
    if (CacheLine *line = l3Cache.find(addr))
        l3Cache.invalidateFrame(*line);
}

void
CacheHierarchy::crash()
{
    l1Cache.invalidateAll();
    l2Cache.invalidateAll();
    l3Cache.invalidateAll();
}

Cycles
CacheHierarchy::flushAll(Cycles now)
{
    // Evict top-down so data merges toward L3 before writeback.
    return flushPrivate(now) + flushShared(now);
}

Cycles
CacheHierarchy::flushPrivate(Cycles now)
{
    Cycles latency = 0;
    l1Cache.forEachValid(
        [&](CacheLine &line) { latency += evictFromL1(line, now); });
    l2Cache.forEachValid(
        [&](CacheLine &line) { latency += evictFromL2(line, now); });
    return latency;
}

Cycles
CacheHierarchy::flushShared(Cycles now)
{
    Cycles latency = 0;
    l3Cache.forEachValid([&](CacheLine &line) {
        CacheLine victim = line;
        l3Cache.invalidateFrame(line);
        latency += evictFromL3(victim, now);
    });
    return latency;
}

} // namespace slpmt
