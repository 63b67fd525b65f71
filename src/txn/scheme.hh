/**
 * @file
 * The evaluated hardware transaction schemes (Section VI-C).
 *
 * - FG:       fine-grain logging baseline; log-free and lazy disabled.
 * - FG_LG:    FG plus log-free storeT.
 * - FG_LZ:    FG plus lazy persistency.
 * - SLPMT:    the full design (fine-grain + log-free + lazy).
 * - SLPMT_CL: SLPMT logging at cache-line granularity (Figure 9).
 * - ATOM:     cache-line-granularity logging with an eight-record
 *             coalescing buffer; no selective logging (HPCA'17).
 * - EDE:      arbitrary-granularity logging; records coalesce within a
 *             single store operation but persist immediately (no
 *             cross-store buffer); ordering barriers removed (ISCA'21).
 */

#ifndef SLPMT_TXN_SCHEME_HH
#define SLPMT_TXN_SCHEME_HH

#include <cstdint>
#include <string>

#include "common/logging.hh"
#include "common/types.hh"

namespace slpmt
{

/** Which hardware persistent-memory transaction design runs. */
enum class SchemeKind : std::uint8_t
{
    FG,
    FG_LG,
    FG_LZ,
    SLPMT,
    SLPMT_CL,
    ATOM,
    EDE,
};

/** Knobs derived from the scheme (or set directly for ablations). */
struct SchemeConfig
{
    SchemeKind kind = SchemeKind::SLPMT;

    /** Log bitmap at word granularity (false: whole-line log bit). */
    bool fineGrainLogging = true;

    /** Honour the log-free operand of storeT. */
    bool allowLogFree = true;

    /** Honour the lazy operand of storeT. */
    bool allowLazy = true;

    /** Route records through the tiered coalescing buffer; when false
     *  every record persists as soon as it is created (EDE). */
    bool useLogBuffer = true;

    /** Extra cycles serialising a logged store against its log write.
     *  The hardware-decoupled designs (FG/SLPMT/ATOM) pay none; EDE
     *  retains a residual per-store ordering cost in its modified
     *  issue queue / write buffer. */
    Cycles storeFenceCycles = 0;

    /** Instruction work constructing one log record in software. The
     *  hardware logging engines (FG/SLPMT/ATOM) create records for
     *  free; EDE emits explicit record-building instructions per
     *  store (its contribution is removing the *fences*, not the
     *  record construction). */
    Cycles softwareLogCycles = 0;

    /** On-wire framing per software-constructed record (type/size
     *  header); hardware record formats are header-free beyond the
     *  address word. */
    Bytes softwareLogHeaderBytes = 0;

    /** Enable the Section III-B1 speculative log-bit rounding. */
    bool speculativeRounding = false;

    /** Number of core-local transaction IDs (lazy tracking depth). */
    std::uint8_t numTxnIds = 4;

    bool operator==(const SchemeConfig &) const = default;

    /** Build the configuration the paper evaluates for @p kind. */
    static SchemeConfig
    forKind(SchemeKind kind)
    {
        SchemeConfig cfg;
        cfg.kind = kind;
        switch (kind) {
          case SchemeKind::FG:
            cfg.allowLogFree = false;
            cfg.allowLazy = false;
            break;
          case SchemeKind::FG_LG:
            cfg.allowLazy = false;
            break;
          case SchemeKind::FG_LZ:
            cfg.allowLogFree = false;
            break;
          case SchemeKind::SLPMT:
            break;
          case SchemeKind::SLPMT_CL:
            cfg.fineGrainLogging = false;
            break;
          case SchemeKind::ATOM:
            cfg.fineGrainLogging = false;
            cfg.allowLogFree = false;
            cfg.allowLazy = false;
            break;
          case SchemeKind::EDE:
            cfg.allowLogFree = false;
            cfg.allowLazy = false;
            cfg.useLogBuffer = false;
            cfg.softwareLogCycles = 60;
            cfg.softwareLogHeaderBytes = 8;
            cfg.storeFenceCycles = 80;
            break;
          default:
            panic("unknown scheme kind");
        }
        return cfg;
    }
};

/** Human-readable scheme name for reports. */
inline std::string
schemeName(SchemeKind kind)
{
    switch (kind) {
      case SchemeKind::FG: return "FG";
      case SchemeKind::FG_LG: return "FG+LG";
      case SchemeKind::FG_LZ: return "FG+LZ";
      case SchemeKind::SLPMT: return "SLPMT";
      case SchemeKind::SLPMT_CL: return "SLPMT-CL";
      case SchemeKind::ATOM: return "ATOM";
      case SchemeKind::EDE: return "EDE";
      default: return "?";
    }
}

} // namespace slpmt

#endif // SLPMT_TXN_SCHEME_HH
