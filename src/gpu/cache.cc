/**
 * @file
 * Tag cache implementation.
 */

#include "gpu/cache.hh"

#include <bit>

namespace bvf::gpu
{

TagCache::TagCache(std::string name, std::uint32_t capacityBytes, int assoc,
                   std::uint32_t lineBytes, int numMshrs)
    : name_(std::move(name)), lineBytes_(lineBytes), assoc_(assoc),
      numMshrs_(numMshrs)
{
    fatal_if(lineBytes == 0 || (lineBytes & (lineBytes - 1)) != 0,
             "%s: line size must be a power of two", name_.c_str());
    fatal_if(assoc <= 0, "%s: associativity must be positive",
             name_.c_str());
    fatal_if(capacityBytes % (lineBytes * static_cast<std::uint32_t>(assoc))
                 != 0,
             "%s: capacity not divisible into sets", name_.c_str());
    sets_ = static_cast<int>(capacityBytes
                             / (lineBytes * static_cast<std::uint32_t>(assoc)));
    fatal_if(sets_ == 0, "%s: zero sets", name_.c_str());
    ways_.resize(static_cast<std::size_t>(sets_ * assoc_));
}

int
TagCache::setIndex(std::uint32_t line) const
{
    return static_cast<int>((line / lineBytes_)
                            % static_cast<std::uint32_t>(sets_));
}

CacheOutcome
TagCache::access(std::uint32_t addr)
{
    const std::uint32_t line = lineAddr(addr);
    const int set = setIndex(line);
    Way *base = &ways_[static_cast<std::size_t>(set * assoc_)];
    for (int w = 0; w < assoc_; ++w) {
        if (base[w].valid && base[w].tag == line) {
            base[w].lruStamp = ++stamp_;
            return CacheOutcome::Hit;
        }
    }
    if (mshrs_.count(line) > 0)
        return CacheOutcome::MissMerged;
    if (numMshrs_ > 0 && static_cast<int>(mshrs_.size()) >= numMshrs_)
        return CacheOutcome::MshrFull;
    mshrs_.insert(line);
    return CacheOutcome::Miss;
}

bool
TagCache::probe(std::uint32_t addr) const
{
    const std::uint32_t line = lineAddr(addr);
    const int set = setIndex(line);
    const Way *base = &ways_[static_cast<std::size_t>(set * assoc_)];
    for (int w = 0; w < assoc_; ++w) {
        if (base[w].valid && base[w].tag == line)
            return true;
    }
    return false;
}

void
TagCache::fill(std::uint32_t addr)
{
    const std::uint32_t line = lineAddr(addr);
    const int set = setIndex(line);
    Way *base = &ways_[static_cast<std::size_t>(set * assoc_)];

    // Already present (e.g. a redundant fill): just refresh LRU.
    Way *victim = nullptr;
    for (int w = 0; w < assoc_; ++w) {
        if (base[w].valid && base[w].tag == line) {
            victim = &base[w];
            break;
        }
    }
    if (!victim) {
        for (int w = 0; w < assoc_; ++w) {
            if (!base[w].valid) {
                victim = &base[w];
                break;
            }
        }
    }
    if (!victim) {
        victim = &base[0];
        for (int w = 1; w < assoc_; ++w) {
            if (base[w].lruStamp < victim->lruStamp)
                victim = &base[w];
        }
    }
    victim->valid = true;
    victim->tag = line;
    victim->lruStamp = ++stamp_;
    mshrs_.erase(line);
}

void
TagCache::invalidate(std::uint32_t addr)
{
    const std::uint32_t line = lineAddr(addr);
    const int set = setIndex(line);
    Way *base = &ways_[static_cast<std::size_t>(set * assoc_)];
    for (int w = 0; w < assoc_; ++w) {
        if (base[w].valid && base[w].tag == line) {
            base[w].valid = false;
            return;
        }
    }
}

bool
TagCache::missPending(std::uint32_t addr) const
{
    return mshrs_.count(lineAddr(addr)) > 0;
}

} // namespace bvf::gpu
