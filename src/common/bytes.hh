/**
 * @file
 * The one little-endian byte codec every binary format in the tree is
 * written with: the bvfd wire protocol, BVFK kernel bytecode, the
 * campaign journal and the access trace.
 *
 * ByteWriter appends fixed-width little-endian integers, doubles as
 * the u64 of their IEEE-754 bit pattern (so energies round-trip
 * bit-identically), u32-length-prefixed strings and raw bytes.
 * ByteReader is the bounds-checked cursor over the same layout: every
 * get fails softly at the end of the input, a string longer than the
 * caller's cap is refused, and count() checks a claimed element count
 * against the bytes actually present, so no decoder sizes an
 * allocation from a count the input cannot back.
 *
 * LayoutWriter and LayoutReader run one field layout, written once per
 * record, in either direction (see "two-way field layouts" below); the
 * bvfd messages and the campaign journal records are defined that way.
 *
 * The header also holds the 16-byte CRC frame that BVFK bytecode and
 * bvfd messages share:
 *
 *   magic    4 bytes
 *   version  u8
 *   type     u8  (bvfd message type; reserved 0 in bytecode)
 *   flags    u16 (reserved, must be 0)
 *   length   u32 payload byte count
 *   crc      u32 CRC-32 of the 12 header bytes above + payload
 *   payload  length bytes
 *
 * The CRC covers the header fields before it as well as the payload,
 * so a type byte flipped into another valid type cannot parse clean.
 * Each format keeps its own version and type checks, payload cap and
 * error messages; the helpers below only move the bytes.
 *
 * Everything is inline: bytecode's per-word loops compile to plain
 * loads and stores.
 */

#ifndef BVF_COMMON_BYTES_HH
#define BVF_COMMON_BYTES_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>

#include "common/crc32.hh"
#include "common/logging.hh"
#include "common/result.hh"

namespace bvf
{

/** Append-only little-endian byte writer. */
class ByteWriter
{
  public:
    void putU8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
    void putU16(std::uint16_t v) { putLe(v); }
    void putU32(std::uint32_t v) { putLe(v); }
    void putU64(std::uint64_t v) { putLe(v); }
    void putF64(double v) { putLe(std::bit_cast<std::uint64_t>(v)); }

    /** Raw bytes, no length prefix. */
    void putBytes(std::string_view bytes) { buf_.append(bytes); }

    /** u32 length + bytes; panics when @p s is longer than @p maxLen. */
    void
    putString(std::string_view s,
              std::size_t maxLen = std::numeric_limits<std::uint32_t>::max())
    {
        panic_if(s.size() > maxLen,
                 "string of %zu bytes exceeds the %zu-byte cap", s.size(),
                 maxLen);
        putU32(static_cast<std::uint32_t>(s.size()));
        buf_.append(s);
    }

    /** Any unsigned integer, little-endian, at its own width. */
    template <typename T>
    void
    putLe(T v)
    {
        static_assert(std::is_unsigned_v<T>);
        char le[sizeof(T)];
        for (std::size_t i = 0; i < sizeof(T); ++i)
            le[i] = static_cast<char>(v >> (8 * i));
        buf_.append(le, sizeof(T));
    }

    void reserve(std::size_t bytes) { buf_.reserve(bytes); }
    void clear() { buf_.clear(); }
    std::size_t size() const { return buf_.size(); }
    bool empty() const { return buf_.empty(); }
    const std::string &str() const { return buf_; }
    std::string take() { return std::move(buf_); }

  private:
    std::string buf_;
};

/**
 * Bounds-checked little-endian cursor. A failed get returns false and
 * consumes nothing.
 */
class ByteReader
{
  public:
    explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

    bool
    getU8(std::uint8_t &v)
    {
        if (pos_ >= bytes_.size())
            return false;
        v = static_cast<std::uint8_t>(bytes_[pos_++]);
        return true;
    }

    bool getU16(std::uint16_t &v) { return getLe(v); }
    bool getU32(std::uint32_t &v) { return getLe(v); }
    bool getU64(std::uint64_t &v) { return getLe(v); }

    bool
    getF64(double &v)
    {
        std::uint64_t bits = 0;
        if (!getLe(bits))
            return false;
        v = std::bit_cast<double>(bits);
        return true;
    }

    /** The next @p n raw bytes, as a view into the input. */
    bool
    getBytes(std::string_view &v, std::size_t n)
    {
        if (remaining() < n)
            return false;
        v = bytes_.substr(pos_, n);
        pos_ += n;
        return true;
    }

    /** Step over @p n bytes (reserved or padding fields). */
    bool
    skip(std::size_t n)
    {
        std::string_view ignored;
        return getBytes(ignored, n);
    }

    /** u32 length + bytes; fails when the length exceeds @p maxLen. */
    bool
    getString(std::string &v, std::uint32_t maxLen)
    {
        const std::size_t start = pos_;
        std::uint32_t len = 0;
        std::string_view bytes;
        if (!getU32(len) || len > maxLen || !getBytes(bytes, len)) {
            pos_ = start;
            return false;
        }
        v.assign(bytes);
        return true;
    }

    /**
     * Can @p n elements of @p elemBytes bytes each still be read?
     * Every decoder checks a claimed count with this before it
     * allocates for it, so a short hostile input cannot drive a large
     * allocation off its count field.
     */
    bool
    count(std::uint64_t n, std::size_t elemBytes) const
    {
        return n <= remaining() / elemBytes;
    }

    /** Every byte consumed? (trailing garbage is a decode error) */
    bool exhausted() const { return pos_ == bytes_.size(); }

    std::size_t remaining() const { return bytes_.size() - pos_; }

    /** Any unsigned integer, little-endian, at its own width. */
    template <typename T>
    bool
    getLe(T &v)
    {
        static_assert(std::is_unsigned_v<T>);
        if (remaining() < sizeof(T))
            return false;
        T x = 0;
        for (std::size_t i = 0; i < sizeof(T); ++i) {
            x |= static_cast<T>(static_cast<std::uint8_t>(bytes_[pos_ + i]))
                 << (8 * i);
        }
        v = x;
        pos_ += sizeof(T);
        return true;
    }

  private:
    std::string_view bytes_;
    std::size_t pos_ = 0;
};

// --- two-way field layouts ---------------------------------------------
//
// A format writes each record's layout once, as a function template
// over the direction:
//
//   template <typename Io>
//   void
//   layout(Io &io, Record &r)
//   {
//       io(r.id, r.energy);                 // fixed-width, in order
//       io.str(r.name, kMaxName);           // u32 length + bytes
//       io.check(r.id != 0, ErrorCode::InvalidArgument, "id %u", r.id);
//   }
//
// LayoutWriter walks it to encode and LayoutReader to decode, so each
// field, its width, its cap and its order appear once. The record is
// taken by non-const reference so one function serves both ways; the
// writer only reads through it. A field's width is its C++ type's:
// u8/u16/u32/u64, double as its IEEE-754 bits, an enum as its
// underlying type, a std::array element by element; u8() narrows any
// integer or enum to one byte. A string's cap holds in both
// directions: the writer panics above it, the reader refuses it.
//
// The reader keeps its first failure and turns every later step into
// a no-op, so a layout needs no early returns. check() is a validation
// rule: it runs only on the read side and only while the read is
// clean, at the point of the layout where it is written.

/** Encoding side of a field layout. */
class LayoutWriter
{
  public:
    template <typename... T>
    void
    operator()(const T &...fields)
    {
        (put(fields), ...);
    }

    template <typename T>
    void
    u8(const T &v)
    {
        w_.putU8(static_cast<std::uint8_t>(v));
    }

    void str(const std::string &s, std::uint32_t cap) { w_.putString(s, cap); }

    /** A vector's u32 element count; items() then writes the elements. */
    template <typename Vec>
    std::uint32_t
    count(const Vec &v)
    {
        const auto n = static_cast<std::uint32_t>(v.size());
        w_.putU32(n);
        return n;
    }

    template <typename Vec, typename Each>
    void
    items(Vec &v, std::uint32_t, std::size_t, Each &&each)
    {
        for (auto &e : v)
            each(e);
    }

    /** Optional trailing group: written iff @p present is nonzero. */
    bool tail(std::uint8_t present) const { return present != 0; }

    void end() const {}

    template <typename... A>
    void
    check(bool, ErrorCode, const char *, const A &...) const
    {
    }

    std::string take() { return w_.take(); }

  private:
    template <typename T>
    void
    put(const T &v)
    {
        if constexpr (std::is_enum_v<T>) {
            put(static_cast<std::underlying_type_t<T>>(v));
        } else if constexpr (std::is_same_v<T, double>) {
            w_.putF64(v);
        } else if constexpr (std::is_integral_v<T>) {
            w_.putLe(v);
        } else {
            for (const auto &e : v)
                put(e);
        }
    }

    ByteWriter w_;
};

/**
 * Decoding side of a field layout. A get past the end fails Truncated
 * ("payload ends mid-field"), as does a string over its cap or a
 * vector count the remaining bytes cannot back; end() refuses
 * trailing bytes as Corrupt.
 */
class LayoutReader
{
  public:
    explicit LayoutReader(std::string_view bytes) : in_(bytes) {}

    template <typename... T>
    void
    operator()(T &...fields)
    {
        (get(fields), ...);
    }

    template <typename T>
    void
    u8(T &v)
    {
        std::uint8_t raw = 0;
        get(raw);
        v = static_cast<T>(raw);
    }

    void
    str(std::string &s, std::uint32_t cap)
    {
        if (ok() && !in_.getString(s, cap))
            truncated();
    }

    template <typename Vec>
    std::uint32_t
    count(Vec &)
    {
        std::uint32_t n = 0;
        get(n);
        return n;
    }

    /**
     * @p n elements of at least @p minBytes each, read by @p each. The
     * count is checked against the bytes left before anything is
     * allocated for it.
     */
    template <typename Vec, typename Each>
    void
    items(Vec &v, std::uint32_t n, std::size_t minBytes, Each &&each)
    {
        if (!ok())
            return;
        if (!in_.count(n, minBytes))
            return truncated();
        v.resize(n);
        for (auto &e : v) {
            if (!ok())
                return;
            each(e);
        }
    }

    /** Optional trailing group: present iff bytes remain (sets @p present). */
    bool
    tail(std::uint8_t &present)
    {
        if (!ok() || in_.exhausted())
            return false;
        present = 1;
        return true;
    }

    void
    end()
    {
        if (ok() && !in_.exhausted())
            fail(Error{ErrorCode::Corrupt, "payload has trailing bytes"});
    }

    /** Fail with @p code and the printf-style message unless @p good. */
    template <typename... A>
    void
    check(bool good, ErrorCode code, const char *fmt, const A &...args)
    {
        if (good || !ok())
            return;
        if constexpr (sizeof...(A) == 0)
            fail(Error{code, fmt});
        else
            fail(Error{code, strFormat(fmt, args...)});
    }

    bool ok() const { return !error_; }
    const Error &error() const { return *error_; }

  private:
    template <typename T>
    void
    get(T &v)
    {
        if (!ok())
            return;
        bool got = true;
        if constexpr (std::is_enum_v<T>) {
            std::underlying_type_t<T> raw{};
            get(raw);
            v = static_cast<T>(raw);
        } else if constexpr (std::is_same_v<T, double>) {
            got = in_.getF64(v);
        } else if constexpr (std::is_integral_v<T>) {
            got = in_.getLe(v);
        } else {
            for (auto &e : v)
                get(e);
        }
        if (!got)
            truncated();
    }

    void
    truncated()
    {
        fail(Error{ErrorCode::Truncated, "payload ends mid-field"});
    }

    void
    fail(Error e)
    {
        if (ok())
            error_ = std::move(e);
    }

    ByteReader in_;
    std::optional<Error> error_;
};

// --- the shared 16-byte CRC frame -------------------------------------

/** CRC frame header byte count (magic through crc). */
constexpr std::size_t kFrameHeaderBytes = 16;

/** The header fields after the magic. */
struct FrameHeader
{
    std::uint8_t version = 0;
    std::uint8_t type = 0;
    std::uint16_t flags = 0;
    std::uint32_t length = 0;
    std::uint32_t crc = 0;
};

/** Serialize one CRC frame: 4-byte @p magic, header, payload. */
inline std::string
encodeCrcFrame(std::string_view magic, std::uint8_t version,
               std::uint8_t type, std::string_view payload)
{
    ByteWriter w;
    w.reserve(kFrameHeaderBytes + payload.size());
    w.putBytes(magic);
    w.putU8(version);
    w.putU8(type);
    w.putU16(0); // flags
    w.putU32(static_cast<std::uint32_t>(payload.size()));
    Crc32 crc;
    crc.update(w.str().data(), w.size());
    crc.update(payload.data(), payload.size());
    w.putU32(crc.value());
    w.putBytes(payload);
    return w.take();
}

/**
 * Decode the header at the start of @p bytes, which must hold at least
 * kFrameHeaderBytes. Returns nothing when it does not start with the
 * 4-byte @p magic.
 */
inline std::optional<FrameHeader>
parseCrcFrameHeader(std::string_view bytes, std::string_view magic)
{
    if (bytes.substr(0, magic.size()) != magic)
        return std::nullopt;
    ByteReader r(bytes.substr(4, kFrameHeaderBytes - 4));
    FrameHeader h;
    r.getU8(h.version);
    r.getU8(h.type);
    r.getU16(h.flags);
    r.getU32(h.length);
    r.getU32(h.crc);
    return h;
}

/**
 * Does the header's CRC match? @p bytes must hold the whole frame
 * (kFrameHeaderBytes + h.length bytes).
 */
inline bool
crcFrameIntact(std::string_view bytes, const FrameHeader &h)
{
    Crc32 crc;
    crc.update(bytes.data(), kFrameHeaderBytes - 4);
    crc.update(bytes.data() + kFrameHeaderBytes, h.length);
    return crc.value() == h.crc;
}

} // namespace bvf

#endif // BVF_COMMON_BYTES_HH
