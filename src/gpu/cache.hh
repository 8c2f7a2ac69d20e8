/**
 * @file
 * Set-associative tag-array cache model with MSHRs.
 *
 * Data contents live in the functional memory image (there is exactly
 * one architectural copy of every datum in the machine), so caches track
 * tags, LRU state and miss status only. This is sufficient for the
 * paper's methodology: the bit contents of any access are read from the
 * functional image at access time.
 */

#ifndef BVF_GPU_CACHE_HH
#define BVF_GPU_CACHE_HH

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "common/logging.hh"

namespace bvf::gpu
{

/** Result of a cache lookup-with-allocate. */
enum class CacheOutcome
{
    Hit,
    Miss,        //!< allocated an MSHR; fill must be reported later
    MissMerged,  //!< merged into an existing MSHR for the same line
    MshrFull,    //!< structural stall; retry later
};

/**
 * Tag-array cache with LRU replacement and optional MSHR tracking.
 * Addresses are byte addresses; lines are config.lineBytes wide.
 */
class TagCache
{
  public:
    /**
     * @param name for diagnostics
     * @param capacityBytes total capacity
     * @param assoc ways per set
     * @param lineBytes line size
     * @param numMshrs outstanding-miss capacity (0 = unlimited)
     */
    TagCache(std::string name, std::uint32_t capacityBytes, int assoc,
             std::uint32_t lineBytes, int numMshrs = 0);

    /** Line-aligned address of @p addr. */
    std::uint32_t
    lineAddr(std::uint32_t addr) const
    {
        return addr & ~(lineBytes_ - 1);
    }

    /**
     * Look up @p addr for a read; on miss, reserve an MSHR keyed by the
     * line (the caller sends the fill request on Miss only, not on
     * MissMerged).
     */
    CacheOutcome access(std::uint32_t addr);

    /** Probe without any state change. */
    bool probe(std::uint32_t addr) const;

    /** Install the line containing @p addr (fill completion). */
    void fill(std::uint32_t addr);

    /** Invalidate the line if present (write-evict stores). */
    void invalidate(std::uint32_t addr);

    /** Is a miss outstanding for this line? */
    bool missPending(std::uint32_t addr) const;

    std::uint32_t lineBytes() const { return lineBytes_; }
    int sets() const { return sets_; }
    int assoc() const { return assoc_; }

  private:
    struct Way
    {
        bool valid = false;
        std::uint32_t tag = 0;
        std::uint64_t lruStamp = 0;
    };

    int setIndex(std::uint32_t line) const;

    std::string name_;
    std::uint32_t lineBytes_;
    int sets_;
    int assoc_;
    int numMshrs_;
    std::vector<Way> ways_; //!< sets_ * assoc_ entries
    std::unordered_set<std::uint32_t> mshrs_; //!< lines with a miss out
    std::uint64_t stamp_ = 0;
};

} // namespace bvf::gpu

#endif // BVF_GPU_CACHE_HH
