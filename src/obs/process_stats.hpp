/**
 * @file
 * Process-wide memory readings for the telemetry gauges.
 *
 * The hot tables and the value arena ask for transparent huge pages
 * (common/line_array.hpp), but the kernel decides: with THP `never`,
 * or when no 2 MiB page is free, it quietly keeps 4 KiB pages and the
 * lookups pay their page walks again. The `process_anon_huge_bytes`
 * gauge shows which one the process got.
 */

#ifndef PROTEUS_OBS_PROCESS_STATS_HPP
#define PROTEUS_OBS_PROCESS_STATS_HPP

#include <cstdint>
#include <string_view>

namespace proteus::obs {

/**
 * Bytes of the `AnonHugePages:` field (in kB) in the text of a
 * /proc/<pid>/smaps_rollup file; 0 when the field is missing.
 */
std::uint64_t anonHugeBytes(std::string_view smaps_rollup);

/** anonHugeBytes() of /proc/self/smaps_rollup; 0 when unreadable. */
std::uint64_t processAnonHugeBytes();

} // namespace proteus::obs

#endif // PROTEUS_OBS_PROCESS_STATS_HPP
