#include "obs/process_stats.hpp"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <sstream>
#include <string>

namespace proteus::obs {

std::uint64_t
anonHugeBytes(std::string_view smaps_rollup)
{
    constexpr std::string_view kField = "AnonHugePages:";
    std::size_t at = 0;
    while (at < smaps_rollup.size()) {
        std::size_t end = smaps_rollup.find('\n', at);
        if (end == std::string_view::npos)
            end = smaps_rollup.size();
        const std::string_view line = smaps_rollup.substr(at, end - at);
        at = end + 1;
        if (line.substr(0, kField.size()) != kField)
            continue;
        std::string_view value = line.substr(kField.size());
        value.remove_prefix(
            std::min(value.find_first_not_of(" \t"), value.size()));
        std::uint64_t kib = 0;
        std::from_chars(value.data(), value.data() + value.size(), kib);
        return kib * 1024;
    }
    return 0;
}

std::uint64_t
processAnonHugeBytes()
{
    std::ifstream file("/proc/self/smaps_rollup");
    if (!file)
        return 0;
    std::ostringstream text;
    text << file.rdbuf();
    return anonHugeBytes(text.str());
}

} // namespace proteus::obs
