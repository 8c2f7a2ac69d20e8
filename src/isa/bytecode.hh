/**
 * @file
 * Binary kernel bytecode: the untrusted on-disk / on-wire form of a
 * complete isa::Program.
 *
 * The frame is the 16-byte CRC frame of common/bytes.hh, the same one
 * bvfd messages travel in (server/protocol.hh): a little-endian,
 * versioned header and a CRC-32 that covers header and payload, so a
 * torn or bit-flipped kernel file is detected before anything
 * interprets it:
 *
 *   magic    "BVFK"                        4 bytes
 *   version  u8  (= kBytecodeVersion)      1 byte
 *   reserved u8  (must be 0)               1 byte
 *   flags    u16 (reserved, must be 0)     2 bytes
 *   length   u32 payload byte count        4 bytes
 *   crc      u32 CRC-32 of the 12 header
 *                bytes above + payload     4 bytes
 *   payload  length bytes
 *
 * The payload carries the kernel name, launch geometry, shared-segment
 * size, the instruction body (16 bytes per instruction, every field in
 * a fixed slot) and the three memory images. Images are chunked into
 * zero-runs and literal word runs so the untouched output slots of
 * suite kernels cost four bytes instead of tens of kilobytes.
 *
 * Decoding is *strict*: the only accepted byte strings are exactly the
 * ones encodeProgram produces. After structural parsing the decoder
 * re-encodes the result and compares bytes, so every accepted input
 * round-trips decode-then-reencode bit-identically -- the property the
 * fuzz driver (sim/fuzz.cc) checks on every mutated input. Length
 * fields are checked against the remaining byte count before any
 * allocation, so a hostile count cannot drive a large allocation.
 *
 * Decoding deliberately does NOT validate program semantics: register
 * indices, opcode-specific field canonicality, branch targets and
 * memory extents are the admission verifier's job
 * (analysis/verifier.hh). decodeProgram only guarantees the result is
 * representable, so the verifier must be total over its output.
 */

#ifndef BVF_ISA_BYTECODE_HH
#define BVF_ISA_BYTECODE_HH

#include <string>
#include <string_view>

#include "common/bytes.hh"
#include "common/result.hh"
#include "isa/program.hh"

namespace bvf::isa
{

/** Bytecode frame format version. */
constexpr std::uint8_t kBytecodeVersion = 1;

/** Frame header byte count (magic through crc). */
constexpr std::size_t kBytecodeHeaderBytes = kFrameHeaderBytes;

/**
 * Hard cap on one kernel's encoded payload (4 MiB). Large enough for
 * every suite kernel's full memory images, small enough that a hostile
 * length field cannot make a decoder buffer gigabytes.
 */
constexpr std::uint32_t kMaxBytecodePayload = 4u << 20;

/** Longest accepted kernel name. */
constexpr std::uint32_t kMaxKernelNameBytes = 256;

/** Serialize @p program into one bytecode frame. */
std::string encodeProgram(const Program &program);

/**
 * Parse one bytecode frame. Errors follow the wire taxonomy:
 * Truncated (input shorter than its header or length field claims),
 * Corrupt (bad magic, bad CRC, reserved bits set, counts that overrun
 * the payload, trailing bytes, or any encoding encodeProgram would not
 * have produced), Unsupported (unknown version).
 */
Result<Program> decodeProgram(std::string_view bytes);

} // namespace bvf::isa

#endif // BVF_ISA_BYTECODE_HH
