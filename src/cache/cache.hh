/**
 * @file
 * A generic set-associative, LRU-replacement cache array used for all
 * three levels of the hierarchy. The array itself is policy-free: the
 * CacheHierarchy decides what happens to victims and how metadata
 * moves between levels.
 *
 * Storage is structure-of-arrays: the CacheLine frames hold the
 * architectural per-line state (tag, MESI state, SLPMT metadata, data
 * bytes), while everything the lookup and replacement loops scan is
 * hoisted into sibling arrays indexed by frame id —
 *
 *  - probeKeys: the line's tag when the frame is valid, a sentinel
 *    that can never equal a line base otherwise. find() and
 *    victimFor() scan only this array (a whole 8-way set's keys fit
 *    in one 64-byte hardware line) instead of striding over ~88-byte
 *    CacheLine objects;
 *  - lastUses: the LRU timestamps consulted by victimFor();
 *  - metaPrev/metaNext/metaLinked: the metadata line index as
 *    index-based links (previously pointers threaded through the
 *    frames);
 *  - setValid: each set's occupancy, its number of valid probe keys,
 *    beside validLines, the array's total.
 *
 * The probe key is the authority on validity: a frame's fields (and
 * its timestamp and index links) are defined only while its key marks
 * it valid. Construction therefore writes no frame — the frames, the
 * timestamps and the links live in uninitialised storage — and
 * nothing reads a frame that was never filled or was invalidated.
 * victimFor() blanks an invalid frame before handing it out. With the
 * occupancy, every whole-array walk (forEachValid(), countIf(),
 * invalidateAll(), state(), restore()) skips empty sets and costs
 * O(sets + valid lines), not O(capacity), and an empty array answers
 * a lookup without probing. Only the audits still read every probe
 * key.
 *
 * Frames never move, so CacheLine pointers handed out by find() stay
 * stable. The probe keys and the occupancy are derived state: any
 * mutation of a frame's tag or validity must go through
 * fillFrame()/invalidateFrame() (or call syncProbeKey() after the
 * fact) to keep them coherent; checkProbeKeys() audits the invariant.
 *
 * The array also owns the level's metadata line index, linking the
 * frames that currently carry transactional metadata (persist bit,
 * log bits, or an owning transaction ID). Transaction-boundary sweeps
 * walk the index instead of scanning every frame, making them
 * O(working set); syncMetaIndex() must be called after any mutation
 * that may change a frame's valid-and-has-metadata state.
 */

#ifndef SLPMT_CACHE_CACHE_HH
#define SLPMT_CACHE_CACHE_HH

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <new>
#include <string>
#include <type_traits>
#include <vector>

#include "cache/cache_line.hh"
#include "common/logging.hh"
#include "common/types.hh"

namespace slpmt
{

/** Geometry and latency of one cache level. */
struct CacheConfig
{
    std::string name;
    Bytes sizeBytes;
    std::size_t ways;
    Cycles hitLatency;

    bool operator==(const CacheConfig &) const = default;
};

/** Set-associative cache array with true-LRU replacement. */
class Cache
{
    // Frames live in raw storage from operator new and begin their
    // lifetime implicitly, which needs an implicit-lifetime type.
    static_assert(std::is_trivially_copy_constructible_v<CacheLine> &&
                      std::is_trivially_destructible_v<CacheLine>,
                  "CacheLine must stay an implicit-lifetime type");

  public:
    /** find() miss / no-frame marker. */
    static constexpr std::size_t npos =
        std::numeric_limits<std::size_t>::max();

    /**
     * Probe key of an invalid frame. Line bases are 64-byte aligned,
     * so the all-ones pattern can never match one and the probe loop
     * needs no separate valid test.
     */
    static constexpr Addr invalidKey = ~Addr{0};

    explicit Cache(const CacheConfig &cfg)
        : config(cfg),
          numSets(cfg.sizeBytes / cacheLineSize / cfg.ways),
          numFrames(numSets * cfg.ways),
          lines(static_cast<CacheLine *>(
              ::operator new(numFrames * sizeof(CacheLine)))),
          probeKeys(numFrames, invalidKey),
          lastUses(std::make_unique_for_overwrite<std::uint64_t[]>(
              numFrames)),
          metaPrev(std::make_unique_for_overwrite<std::int32_t[]>(
              numFrames)),
          metaNext(std::make_unique_for_overwrite<std::int32_t[]>(
              numFrames)),
          metaLinked(numFrames, 0),
          setValid(numSets, 0)
    {
        panicIfNot(numSets > 0 && (numSets & (numSets - 1)) == 0,
                   config.name + ": set count must be a power of two");
    }

    const std::string &name() const { return config.name; }
    Cycles hitLatency() const { return config.hitLatency; }
    std::size_t sets() const { return numSets; }
    std::size_t ways() const { return config.ways; }

    /**
     * The single probe loop behind both find() overloads (and the
     * only place that scans for a tag): frame id of the valid line
     * holding @p addr's cache line, or npos.
     */
    std::size_t
    findFrame(Addr addr) const
    {
        if (validLines == 0)
            return npos;
        const Addr base = lineBase(addr);
        const std::size_t first = setFirstFrame(base);
        const Addr *keys = probeKeys.data() + first;
        for (std::size_t w = 0; w < config.ways; ++w) {
            if (keys[w] == base)
                return first + w;
        }
        return npos;
    }

    /**
     * findFrame() with an MRU hint: if @p hint's probe key matches,
     * the set scan is skipped entirely. Probe keys are unique per
     * resident line, so a matching hint — however stale — names the
     * one frame holding the line; a stale non-matching hint just
     * falls back to the scan. Only the key is read, so a hint left
     * over from before a crash or a restore is harmless. @p hint
     * must be any in-range frame id.
     */
    std::size_t
    findFrameHinted(Addr addr, std::size_t hint) const
    {
        if (probeKeys[hint] == lineBase(addr))
            return hint;
        return findFrame(addr);
    }

    /** Find a valid line holding @p addr's cache line, or nullptr. */
    CacheLine *
    find(Addr addr)
    {
        const std::size_t f = findFrame(addr);
        return f == npos ? nullptr : &lines[f];
    }

    const CacheLine *
    find(Addr addr) const
    {
        const std::size_t f = findFrame(addr);
        return f == npos ? nullptr : &lines[f];
    }

    /**
     * Choose the victim frame for filling @p addr. The tie-break is
     * deterministic so replacement order is stable across refactors:
     * the first (lowest-way) invalid frame of the set wins if any way
     * is invalid, and is handed out blank (invalid, clean, no
     * transactional metadata); otherwise the LRU way, and on equal
     * timestamps the lowest way (strict less-than keeps the earliest
     * scanned). The caller must handle any valid victim (writeback,
     * metadata propagation) before reusing the frame.
     */
    CacheLine &
    victimFor(Addr addr)
    {
        const std::size_t first = setFirstFrame(lineBase(addr));
        const Addr *keys = probeKeys.data() + first;
        const std::uint64_t *uses = lastUses.get() + first;
        std::size_t victim = 0;
        for (std::size_t w = 0; w < config.ways; ++w) {
            if (keys[w] == invalidKey) {
                CacheLine &blank = lines[first + w];
                blank.invalidate();
                return blank;
            }
            if (uses[w] < uses[victim])
                victim = w;
        }
        return lines[first + victim];
    }

    /** The frame behind a findFrame() id. */
    CacheLine &lineAt(std::size_t frame) { return lines[frame]; }

    /** Bump a line's LRU timestamp. */
    void touch(CacheLine &line) { lastUses[frameIndex(line)] = ++useClock; }

    /** touch() by frame id — skips the pointer-difference lookup when
     *  the caller already holds the findFrame() result. */
    void touchFrame(std::size_t frame) { lastUses[frame] = ++useClock; }

    /** A valid frame's LRU timestamp (tests / diagnostics). */
    std::uint64_t lastUse(const CacheLine &line) const
    {
        return lastUses[frameIndex(line)];
    }

    /** @name Probe-key maintenance */
    /** @{ */

    /** Frame id of @p line, which must be a frame of this array. */
    std::size_t
    frameIndex(const CacheLine &line) const
    {
        return static_cast<std::size_t>(&line - lines.get());
    }

    /**
     * Re-derive @p line's probe key and its set's occupancy after a
     * tag or validity change. fillFrame()/invalidateFrame() do this
     * implicitly; direct field writes (which must define the frame's
     * state) must follow up with it.
     */
    void
    syncProbeKey(CacheLine &line)
    {
        setKey(frameIndex(line), line.valid() ? line.tag : invalidKey);
    }

    /**
     * Begin filling a frame with a new identity: sets the tag and
     * coherence state, publishes the probe key and gives the frame a
     * defined timestamp (the current clock; touch() follows). The
     * caller fills dirty/metadata/data afterwards.
     */
    void
    fillFrame(CacheLine &line, Addr tag, MesiState state)
    {
        const std::size_t f = frameIndex(line);
        line.tag = tag;
        line.state = state;
        setKey(f, tag);
        lastUses[f] = useClock;
    }

    /**
     * Invalidate a frame and retract its probe key, making it
     * invisible to find()/victimFor() immediately — required before
     * any eviction recursion that may probe this array. The metadata
     * index is NOT resynced here; levels that keep one call
     * syncMetaIndex() separately (L3 keeps none).
     */
    void
    invalidateFrame(CacheLine &line)
    {
        line.invalidate();
        setKey(frameIndex(line), invalidKey);
    }

    /**
     * Audit the probe keys and the occupancy against the frames:
     * every frame with a valid key must be valid and hold that tag,
     * every set's occupancy must equal its number of valid keys, and
     * the array's total must equal their sum.
     * Frames behind invalid keys are undefined and are not read.
     * @return false with a diagnostic in @p why on the first
     * violation.
     */
    bool
    checkProbeKeys(std::string *why) const
    {
        std::size_t total = 0;
        for (std::size_t s = 0; s < numSets; ++s) {
            std::size_t keys = 0;
            for (std::size_t f = s * config.ways;
                 f < (s + 1) * config.ways; ++f) {
                if (probeKeys[f] == invalidKey)
                    continue;
                ++keys;
                if (!lines[f].valid() || lines[f].tag != probeKeys[f]) {
                    if (why)
                        *why = config.name + ": frame " +
                               std::to_string(f) + " probe key " +
                               std::to_string(probeKeys[f]) +
                               " names no valid line with that tag";
                    return false;
                }
            }
            if (keys != setValid[s]) {
                if (why)
                    *why = config.name + ": set " + std::to_string(s) +
                           " occupancy " + std::to_string(setValid[s]) +
                           " != " + std::to_string(keys) + " valid keys";
                return false;
            }
            total += keys;
        }
        if (total != validLines) {
            if (why)
                *why = config.name + ": " + std::to_string(validLines) +
                       " valid lines counted, " + std::to_string(total) +
                       " valid keys";
            return false;
        }
        return true;
    }

    /** Test hook: force a set's occupancy count, to exercise the
     *  audit's divergence detection. */
    void
    setOccupancyForTest(std::size_t set, std::uint32_t count)
    {
        setValid[set] = count;
    }

    /** Test hook: force the array's valid-line total. */
    void setValidLinesForTest(std::size_t count) { validLines = count; }
    /** @} */

    /**
     * Apply @p fn to every valid line in frame order (flushes,
     * checkpointing). Empty sets are skipped; within an occupied set
     * each key is re-read at its turn, so @p fn may invalidate frames
     * it has not reached yet. Takes any callable directly — the scan
     * is a hot path and must not pay a std::function indirection.
     */
    template <typename Fn>
    void
    forEachValid(Fn &&fn)
    {
        forEachValidFrame([&](std::size_t f) { fn(lines[f]); });
    }

    /**
     * Invalidate every line (crash simulation): reset the keys of the
     * occupied sets and unlink the metadata index along its list. The
     * frames are left as they are — they are undefined once invalid.
     */
    void
    invalidateAll()
    {
        for (std::size_t s = 0; s < numSets; ++s) {
            if (setValid[s] == 0)
                continue;
            std::fill_n(probeKeys.begin() +
                            static_cast<std::ptrdiff_t>(s * config.ways),
                        config.ways, invalidKey);
            setValid[s] = 0;
        }
        validLines = 0;
        for (std::int32_t i = metaHead; i >= 0; i = metaNext[i])
            metaLinked[i] = 0;
        metaHead = -1;
        metaCount = 0;
    }

    /** Count valid lines matching a predicate (test support). */
    template <typename Pred>
    std::size_t
    countIf(Pred &&pred) const
    {
        std::size_t n = 0;
        forEachValidFrame([&](std::size_t f) {
            const CacheLine &line = lines[f];
            n += pred(line) ? 1 : 0;
        });
        return n;
    }

    /** @name Metadata line index */
    /** @{ */

    /** @p line is a frame of this array (not a detached copy). */
    bool
    owns(const CacheLine *line) const
    {
        return line >= lines.get() && line < lines.get() + numFrames;
    }

    /**
     * Re-evaluate @p line's index membership after a metadata or
     * validity change: link it when its key is valid and it carries
     * metadata, unlink it otherwise. Idempotent; O(1).
     */
    void
    syncMetaIndex(CacheLine &line)
    {
        const std::int32_t i =
            static_cast<std::int32_t>(frameIndex(line));
        const bool should =
            probeKeys[static_cast<std::size_t>(i)] != invalidKey &&
            line.hasTxnMeta();
        if (should == (metaLinked[i] != 0))
            return;
        if (should) {
            metaPrev[i] = -1;
            metaNext[i] = metaHead;
            if (metaHead >= 0)
                metaPrev[metaHead] = i;
            metaHead = i;
            metaLinked[i] = 1;
            ++metaCount;
        } else {
            if (metaPrev[i] >= 0)
                metaNext[metaPrev[i]] = metaNext[i];
            else
                metaHead = metaNext[i];
            if (metaNext[i] >= 0)
                metaPrev[metaNext[i]] = metaPrev[i];
            metaLinked[i] = 0;
            --metaCount;
        }
    }

    /** Number of indexed (metadata-carrying) lines. */
    std::size_t metaLineCount() const { return metaCount; }

    /**
     * Append every indexed line to @p out in frame order (the order a
     * full array scan would visit them), so index walks reproduce the
     * historical scan order byte-for-byte. O(working set log working
     * set) for the sort — the list itself is unordered.
     */
    void
    collectMetaLines(std::vector<CacheLine *> &out)
    {
        const std::size_t first = out.size();
        for (std::int32_t i = metaHead; i >= 0; i = metaNext[i])
            out.push_back(&lines[i]);
        std::sort(out.begin() + first, out.end());
    }

    /**
     * Audit the index against a scan of the probe keys: a frame is
     * linked exactly when its key is valid and it carries metadata,
     * and the list reaches exactly the linked frames. @return false
     * with a diagnostic in @p why on the first violation.
     */
    bool
    checkMetaIndex(std::string *why) const
    {
        std::size_t expect = 0;
        for (std::size_t i = 0; i < numFrames; ++i) {
            const bool valid = probeKeys[i] != invalidKey;
            const bool should = valid && lines[i].hasTxnMeta();
            if (should != (metaLinked[i] != 0)) {
                if (why)
                    *why = config.name + ": frame " + std::to_string(i) +
                           (valid ? " (tag " +
                                        std::to_string(probeKeys[i]) + ")"
                                  : std::string(" (invalid)")) +
                           (should ? " has metadata but is not indexed"
                                   : " is indexed without metadata");
                return false;
            }
            expect += should ? 1 : 0;
        }
        std::size_t reached = 0;
        for (std::int32_t i = metaHead; i >= 0; i = metaNext[i]) {
            if (static_cast<std::size_t>(i) >= numFrames ||
                !metaLinked[i] || reached++ > numFrames) {
                if (why)
                    *why = config.name + ": corrupt meta list node";
                return false;
            }
        }
        if (reached != expect || metaCount != expect) {
            if (why)
                *why = config.name + ": meta list reaches " +
                       std::to_string(reached) + " of " +
                       std::to_string(expect) + " lines (count " +
                       std::to_string(metaCount) + ")";
            return false;
        }
        return true;
    }

    /** Test hook: force a frame's linked flag without touching the
     *  list, to exercise the audit's divergence detection. */
    void
    setMetaLinkedForTest(CacheLine &line, bool linked)
    {
        metaLinked[frameIndex(line)] = linked ? 1 : 0;
    }
    /** @} */

    /**
     * Everything a checkpoint holds of an array: the replacement clock
     * and every valid frame (its id, LRU timestamp and line) in frame
     * order. Invalid frames carry no observable state (victimFor()
     * prefers any invalid way before consulting timestamps), and the
     * probe keys, the occupancy and the index links are derived.
     */
    struct State
    {
        struct Frame
        {
            std::size_t frame;
            std::uint64_t lastUse;
            CacheLine line;

            bool operator==(const Frame &) const = default;
        };

        std::uint64_t useClock = 0;
        std::vector<Frame> frames;

        bool operator==(const State &) const = default;
    };

    State
    state() const
    {
        State s{useClock, {}};
        s.frames.reserve(validLines);
        forEachValidFrame([&](std::size_t f) {
            s.frames.push_back({f, lastUses[f], lines[f]});
        });
        return s;
    }

    /**
     * Restore a state of a same-geometry array: invalidate everything,
     * then rebuild the saved frames and re-derive the probe keys, the
     * occupancy and the metadata index. O(sets + saved frames).
     */
    void
    restore(const State &s)
    {
        invalidateAll();
        useClock = s.useClock;
        for (const State::Frame &f : s.frames) {
            CacheLine &line = lines[f.frame];
            line = f.line;
            lastUses[f.frame] = f.lastUse;
            syncProbeKey(line);
            syncMetaIndex(line);
        }
    }

  private:
    /** Set index of line base @p base. */
    std::size_t
    setOf(Addr base) const
    {
        return static_cast<std::size_t>(base / cacheLineSize) &
               (numSets - 1);
    }

    /** First frame id of @p base's set (the probe window start). */
    std::size_t
    setFirstFrame(Addr base) const
    {
        return setOf(base) * config.ways;
    }

    /** The walk behind forEachValid(): @p fn(frame id) for every
     *  valid frame in frame order, skipping empty sets. */
    template <typename Fn>
    void
    forEachValidFrame(Fn &&fn) const
    {
        for (std::size_t s = 0; s < numSets; ++s) {
            if (setValid[s] == 0)
                continue;
            for (std::size_t f = s * config.ways;
                 f < (s + 1) * config.ways; ++f) {
                if (probeKeys[f] != invalidKey)
                    fn(f);
            }
        }
    }

    /**
     * Publish frame @p f's probe key, keeping its set's occupancy. A
     * valid key is a line base of the frame's own set, so the set
     * comes from whichever key is valid, without a division.
     */
    void
    setKey(std::size_t f, Addr key)
    {
        const Addr old = probeKeys[f];
        if (old == invalidKey && key != invalidKey) {
            ++setValid[setOf(key)];
            ++validLines;
        } else if (old != invalidKey && key == invalidKey) {
            --setValid[setOf(old)];
            --validLines;
        }
        probeKeys[f] = key;
    }

    /** Releases the raw frame storage (CacheLine is trivially
     *  destructible, so no destructor runs). */
    struct FrameStorageDelete
    {
        void operator()(CacheLine *p) const { ::operator delete(p); }
    };

    CacheConfig config;
    std::size_t numSets;
    std::size_t numFrames;

    /** The frames (cold per-line state; stable addresses), undefined
     *  while their probe key is invalid. */
    std::unique_ptr<CacheLine[], FrameStorageDelete> lines;

    /** @name Hot sibling arrays, indexed by frame id */
    /** @{ */
    std::vector<Addr> probeKeys;           //!< tag or invalidKey
    /** LRU timestamps and index links: defined only for valid frames
     *  and linked frames respectively, so left uninitialised. */
    std::unique_ptr<std::uint64_t[]> lastUses;
    std::unique_ptr<std::int32_t[]> metaPrev;  //!< meta links (-1 end)
    std::unique_ptr<std::int32_t[]> metaNext;
    std::vector<std::uint8_t> metaLinked;  //!< frame is on the list
    /** @} */

    /** Valid probe keys per set, indexed by set, and in all sets. */
    std::vector<std::uint32_t> setValid;
    std::size_t validLines = 0;

    std::uint64_t useClock = 0;

    /** Head frame id of the unordered metadata line list (-1 empty). */
    std::int32_t metaHead = -1;
    std::size_t metaCount = 0;
};

} // namespace slpmt

#endif // SLPMT_CACHE_CACHE_HH
