/**
 * @file
 * Kernel bytecode codec implementation.
 */

#include "isa/bytecode.hh"

#include "common/bytes.hh"
#include "common/logging.hh"

namespace bvf::isa
{

namespace
{

constexpr std::string_view kMagic = "BVFK";

/** Zero-runs shorter than this ride inside a literal chunk. */
constexpr std::uint32_t kMinZeroRun = 8;

// --- image chunking ----------------------------------------------------

/**
 * Emit @p image as zero-run / literal-run chunks. A chunk tag packs
 * the word count in the upper 31 bits with the literal flag in bit 0;
 * literal chunks are followed by their words, zero chunks by nothing.
 */
void
putImage(ByteWriter &out, const std::vector<Word> &image)
{
    out.putU32(static_cast<std::uint32_t>(image.size()));
    std::size_t i = 0;
    while (i < image.size()) {
        std::size_t z = i;
        while (z < image.size() && image[z] == 0)
            ++z;
        if (z - i >= kMinZeroRun) {
            out.putU32(static_cast<std::uint32_t>((z - i) << 1));
            i = z;
            continue;
        }
        // Literal run: up to (but not including) the next long zero run.
        std::size_t end = i;
        while (end < image.size()) {
            if (image[end] == 0) {
                std::size_t zrun = end;
                while (zrun < image.size() && image[zrun] == 0)
                    ++zrun;
                if (zrun - end >= kMinZeroRun)
                    break;
                end = zrun;
                continue;
            }
            ++end;
        }
        out.putU32(static_cast<std::uint32_t>(((end - i) << 1) | 1u));
        for (; i < end; ++i)
            out.putU32(image[i]);
    }
}

Result<void>
getImage(ByteReader &in, std::vector<Word> &image, const char *space)
{
    const auto corrupt = [&](const char *what) {
        return Error{ErrorCode::Corrupt,
                     strFormat("bytecode: %s image %s", space, what)};
    };
    std::uint32_t words = 0;
    if (!in.getU32(words))
        return corrupt("count missing");
    if (words > kMaxBytecodePayload / 4)
        return corrupt("count exceeds the payload cap");
    image.assign(words, 0);
    std::size_t filled = 0;
    while (filled < words) {
        std::uint32_t tag = 0;
        if (!in.getU32(tag))
            return corrupt("chunk tag missing");
        const std::uint32_t count = tag >> 1;
        if (count == 0 || count > words - filled)
            return corrupt("chunk overruns its image");
        if (tag & 1u) {
            // Literal words: the count must be backed by real bytes
            // before anything is read, so a short hostile payload
            // cannot claim its way into a large copy.
            if (!in.count(count, 4))
                return corrupt("literal chunk overruns the payload");
            for (std::uint32_t i = 0; i < count; ++i) {
                std::uint32_t w = 0;
                (void)in.getU32(w);
                image[filled + i] = w;
            }
        }
        filled += count;
    }
    return {};
}

// --- payload codec -----------------------------------------------------

std::string
encodePayload(const Program &program)
{
    ByteWriter out;
    out.putString(program.name);
    out.putU32(static_cast<std::uint32_t>(program.launch.gridBlocks));
    out.putU32(static_cast<std::uint32_t>(program.launch.blockThreads));
    out.putU32(program.sharedBytesPerBlock);

    out.putU32(static_cast<std::uint32_t>(program.body.size()));
    for (const Instruction &instr : program.body) {
        out.putU8(static_cast<std::uint8_t>(instr.op));
        out.putU8(instr.dst);
        out.putU8(instr.srcA);
        out.putU8(instr.srcB);
        out.putU8(instr.pred);
        out.putU8(static_cast<std::uint8_t>((instr.predNegate ? 1u : 0u)
                                            | (instr.immB ? 2u : 0u)));
        out.putU8(instr.flags);
        out.putU8(0); // reserved
        out.putU32(static_cast<std::uint32_t>(instr.imm));
        out.putU32(static_cast<std::uint32_t>(instr.reconv));
    }

    putImage(out, program.global);
    putImage(out, program.constants);
    putImage(out, program.texture);
    return out.take();
}

Result<Program>
decodePayload(std::string_view payload)
{
    const auto corrupt = [](const char *what) {
        return Error{ErrorCode::Corrupt,
                     strFormat("bytecode: %s", what)};
    };
    ByteReader in(payload);
    Program prog;

    std::uint32_t nameLen = 0;
    std::string_view name;
    if (!in.getU32(nameLen))
        return corrupt("name length missing");
    if (nameLen > kMaxKernelNameBytes)
        return corrupt("kernel name too long");
    if (!in.getBytes(name, nameLen))
        return corrupt("name bytes missing");
    prog.name.assign(name);

    std::uint32_t gridBlocks = 0;
    std::uint32_t blockThreads = 0;
    if (!in.getU32(gridBlocks) || !in.getU32(blockThreads)
        || !in.getU32(prog.sharedBytesPerBlock)) {
        return corrupt("launch geometry missing");
    }
    prog.launch.gridBlocks = static_cast<int>(gridBlocks);
    prog.launch.blockThreads = static_cast<int>(blockThreads);

    std::uint32_t bodyCount = 0;
    if (!in.getU32(bodyCount))
        return corrupt("instruction count missing");
    // 16 bytes per instruction: check before allocating.
    if (!in.count(bodyCount, 16))
        return corrupt("instruction count overruns the payload");
    prog.body.reserve(bodyCount);
    for (std::uint32_t i = 0; i < bodyCount; ++i) {
        Instruction instr;
        std::uint8_t op = 0;
        std::uint8_t bools = 0;
        std::uint8_t reserved = 0;
        std::uint32_t imm = 0;
        std::uint32_t reconv = 0;
        (void)in.getU8(op);
        (void)in.getU8(instr.dst);
        (void)in.getU8(instr.srcA);
        (void)in.getU8(instr.srcB);
        (void)in.getU8(instr.pred);
        (void)in.getU8(bools);
        (void)in.getU8(instr.flags);
        (void)in.getU8(reserved);
        (void)in.getU32(imm);
        if (!in.getU32(reconv))
            return corrupt("instruction record truncated");
        if (op >= static_cast<std::uint8_t>(Opcode::NumOpcodes))
            return corrupt("unknown opcode");
        if (bools & ~3u)
            return corrupt("reserved instruction bits set");
        if (reserved != 0)
            return corrupt("reserved instruction byte set");
        instr.op = static_cast<Opcode>(op);
        instr.predNegate = (bools & 1u) != 0;
        instr.immB = (bools & 2u) != 0;
        instr.imm = static_cast<std::int32_t>(imm);
        instr.reconv = static_cast<std::int32_t>(reconv);
        prog.body.push_back(instr);
    }

    if (auto r = getImage(in, prog.global, "global"); !r.ok())
        return r.error();
    if (auto r = getImage(in, prog.constants, "constant"); !r.ok())
        return r.error();
    if (auto r = getImage(in, prog.texture, "texture"); !r.ok())
        return r.error();
    if (!in.exhausted())
        return corrupt("trailing bytes after the texture image");
    return prog;
}

} // namespace

std::string
encodeProgram(const Program &program)
{
    return encodeCrcFrame(kMagic, kBytecodeVersion, 0,
                          encodePayload(program));
}

Result<Program>
decodeProgram(std::string_view bytes)
{
    if (bytes.size() < kBytecodeHeaderBytes)
        return Error{ErrorCode::Truncated,
                     "bytecode: input shorter than the frame header"};
    const auto header = parseCrcFrameHeader(bytes, kMagic);
    if (!header)
        return Error{ErrorCode::Corrupt, "bytecode: bad magic"};
    const FrameHeader &h = *header;
    if (h.version != kBytecodeVersion) {
        return Error{ErrorCode::Unsupported,
                     strFormat("bytecode: version %u not supported "
                               "(want %u)",
                               unsigned(h.version),
                               unsigned(kBytecodeVersion))};
    }
    if (h.type != 0 || h.flags != 0)
        return Error{ErrorCode::Corrupt,
                     "bytecode: reserved header bits set"};
    // An oversized length is damage, not a request to buffer gigabytes.
    if (h.length > kMaxBytecodePayload)
        return Error{ErrorCode::Corrupt,
                     "bytecode: length exceeds the payload cap"};
    if (bytes.size() < kBytecodeHeaderBytes + h.length)
        return Error{ErrorCode::Truncated,
                     "bytecode: input shorter than its length field"};
    if (bytes.size() > kBytecodeHeaderBytes + h.length)
        return Error{ErrorCode::Corrupt,
                     "bytecode: trailing bytes after the frame"};
    if (!crcFrameIntact(bytes, h))
        return Error{ErrorCode::Corrupt, "bytecode: CRC mismatch"};

    auto decoded = decodePayload(bytes.substr(kBytecodeHeaderBytes));
    if (!decoded.ok())
        return decoded.error();

    // Strictness backstop: the only accepted inputs are exactly the
    // encoder's outputs, so decode-then-reencode is byte-identical by
    // construction (non-canonical image chunking, stray name bytes and
    // the like all land here).
    if (encodeProgram(decoded.value()) != bytes) {
        return Error{ErrorCode::Corrupt,
                     "bytecode: non-canonical encoding"};
    }
    return decoded;
}

} // namespace bvf::isa
