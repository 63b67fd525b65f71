/**
 * @file
 * Store-site annotations: the interface between programs and the
 * storeT instruction (Section IV).
 *
 * Every static store location in a workload that targets persistent
 * memory registers a StoreSiteInfo describing (a) the programmer's
 * manual annotation and (b) the static facts a compiler pass can see
 * about the site (does it target a freshly allocated region? is its
 * value rebuildable from persistent data? does the justification need
 * deep program semantics?). An AnnotationPolicy then maps a site to
 * the storeT operands actually issued — the manual policy replays the
 * hand annotations, the compiler policy re-derives them from the
 * static facts (src/compiler), and the null policy turns storeT off.
 */

#ifndef SLPMT_CORE_ANNOTATION_HH
#define SLPMT_CORE_ANNOTATION_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "txn/engine.hh"

namespace slpmt
{

/** Identifier of a registered static store site. */
using SiteId = std::uint32_t;

/** Where the stored value comes from (compiler-visible dataflow). */
enum class ValueOrigin : std::uint8_t
{
    Constant,   //!< literal / immediate
    Input,      //!< transaction input (function argument)
    PmLoad,     //!< loaded from persistent memory in this transaction
    Computed,   //!< derived by computation within the transaction
};

/** Static description of one store site. */
struct StoreSiteInfo
{
    std::string name;                //!< "workload.func.field"
    StoreFlags manual;               //!< the hand annotation
    ValueOrigin origin = ValueOrigin::Computed;
    bool targetsFreshAlloc = false;  //!< Pattern 1: region malloc'd in
                                     //!< or before this transaction
    bool targetsDeadRegion = false;  //!< Pattern 1: region freed by
                                     //!< this transaction
    bool rebuildable = false;        //!< Pattern 2: value and address
                                     //!< recoverable from durable data
    bool requiresDeepSemantics = false; //!< justification beyond
                                        //!< MemorySSA-style analysis
    std::size_t defUseDepth = 1;     //!< def-use chain length walked
                                     //!< by the analysis (time model)

    bool operator==(const StoreSiteInfo &) const = default;
};

/** Registry of the store sites of a program. */
class StoreSiteRegistry
{
  public:
    SiteId
    add(StoreSiteInfo info)
    {
        sites.push_back(std::move(info));
        return static_cast<SiteId>(sites.size() - 1);
    }

    const StoreSiteInfo &
    info(SiteId id) const
    {
        panicIfNot(id < sites.size(), "unknown store site");
        return sites[id];
    }

    std::size_t size() const { return sites.size(); }
    const std::vector<StoreSiteInfo> &all() const { return sites; }

    /** A copy is the registry's whole state (checkpoints hold one). */
    bool operator==(const StoreSiteRegistry &) const = default;

  private:
    std::vector<StoreSiteInfo> sites;
};

/** Maps a store site to the storeT operands the program issues. */
class AnnotationPolicy
{
  public:
    virtual ~AnnotationPolicy() = default;
    virtual StoreFlags flagsFor(const StoreSiteInfo &site) const = 0;
    virtual std::string name() const = 0;
};

/** Plain stores everywhere (annotations off). */
class NullAnnotationPolicy : public AnnotationPolicy
{
  public:
    StoreFlags
    flagsFor(const StoreSiteInfo &) const override
    {
        return {};
    }

    std::string name() const override { return "none"; }
};

/** Replays the programmer's manual annotations (Section VI-A). */
class ManualAnnotationPolicy : public AnnotationPolicy
{
  public:
    StoreFlags
    flagsFor(const StoreSiteInfo &site) const override
    {
        return site.manual;
    }

    std::string name() const override { return "manual"; }
};

} // namespace slpmt

#endif // SLPMT_CORE_ANNOTATION_HH
