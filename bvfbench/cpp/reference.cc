/**
 * @file
 * Reference file I/O.
 */

#include "reference.hh"

#include <sstream>

#include "common/atomic_file.hh"
#include "common/crc32.hh"

namespace bvfbench
{

bvf::Result<Reference>
loadReference(const std::string &path)
{
    auto bytes = bvf::readFileBytes(path);
    if (!bytes.ok())
        return bytes.error();
    Reference ref;
    std::istringstream in(bytes.value());
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        const auto space = line.find(' ');
        if (space == std::string::npos) {
            return bvf::Error{bvf::ErrorCode::Corrupt,
                              path + ": line without a value: " + line};
        }
        ref[line.substr(0, space)] = line.substr(space + 1);
    }
    return ref;
}

bvf::Result<void>
saveReference(const std::string &path, const std::string &header,
              const Reference &ref)
{
    std::string text = header;
    for (const auto &[key, value] : ref)
        text += key + " " + value + "\n";
    return bvf::atomicWriteFile(path, text);
}

std::string
reportDigest(std::string_view bytes)
{
    return bvf::strFormat("r%08x-%zx", bvf::crc32(bytes.data(), bytes.size()),
                          bytes.size());
}

} // namespace bvfbench
