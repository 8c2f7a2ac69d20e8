/**
 * @file
 * Reference outputs of the campaign workloads, kept as text in
 * bvfbench/reference/<workload>.txt: the report digest, the exact work
 * counters of the traced pass and the sum of per-app BVF chip savings.
 *
 * A change that alters modelled results on purpose regenerates them:
 *
 *   python3 bvfbench/run.py --workload campaign-stall --seed 1 \
 *       --seconds 1 --trace 1 --record-reference
 *
 * (and the same for campaign-dense), then commits the diff with the
 * energy change explained.
 */

#ifndef BVFBENCH_REFERENCE_HH
#define BVFBENCH_REFERENCE_HH

#include <map>
#include <string>
#include <string_view>

#include "common/result.hh"

namespace bvfbench
{

/** "key value" lines; '#' starts a comment line. */
using Reference = std::map<std::string, std::string>;

bvf::Result<Reference> loadReference(const std::string &path);

bvf::Result<void> saveReference(const std::string &path,
                                const std::string &header,
                                const Reference &ref);

/** "r<crc32>-<size hex>": the digest a report is checked against. */
std::string reportDigest(std::string_view bytes);

} // namespace bvfbench

#endif // BVFBENCH_REFERENCE_HH
