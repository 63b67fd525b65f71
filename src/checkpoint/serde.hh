/**
 * @file
 * Binary serialization primitives for machine-state checkpoints.
 *
 * A checkpoint blob is a flat little-endian byte stream: fixed-width
 * integers, length-prefixed strings/vectors, raw byte spans. The
 * writer is append-only; the reader is strictly bounds-checked and
 * throws CheckpointError on any truncated or malformed read, so a
 * damaged blob is rejected instead of silently restoring garbage.
 *
 * Components serialize themselves via saveState(BlobWriter&) const /
 * restoreState(BlobReader&) member pairs; this header is intentionally
 * dependency-free (common/ only) so every layer of the machine can
 * include it without cycles.
 */

#ifndef SLPMT_CHECKPOINT_SERDE_HH
#define SLPMT_CHECKPOINT_SERDE_HH

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace slpmt
{

/** Thrown on any malformed, truncated, or mismatched checkpoint. */
class CheckpointError : public std::runtime_error
{
  public:
    explicit CheckpointError(const std::string &what)
        : std::runtime_error("checkpoint: " + what)
    {
    }
};

/** Append-only little-endian blob builder. */
class BlobWriter
{
  public:
    /** Any integral or enum value, stored little-endian at its width. */
    template <typename T>
    void
    u(T value)
    {
        static_assert(std::is_integral<T>::value ||
                          std::is_enum<T>::value,
                      "BlobWriter::u takes integral/enum types");
        using U = typename std::make_unsigned<
            typename std::conditional<std::is_enum<T>::value,
                                      std::underlying_type<T>,
                                      std::enable_if<true, T>>::type::
                type>::type;
        U v = static_cast<U>(value);
        for (std::size_t i = 0; i < sizeof(U); ++i)
            buf.push_back(
                static_cast<std::uint8_t>((v >> (8 * i)) & 0xff));
    }

    void b(bool value) { u<std::uint8_t>(value ? 1 : 0); }

    /** Raw byte span, no length prefix (caller knows the size). */
    void
    bytes(const void *src, std::size_t len)
    {
        const auto *p = static_cast<const std::uint8_t *>(src);
        buf.insert(buf.end(), p, p + len);
    }

    /** Length-prefixed string. */
    void
    str(const std::string &s)
    {
        u<std::uint64_t>(s.size());
        bytes(s.data(), s.size());
    }

    const std::vector<std::uint8_t> &data() const { return buf; }
    std::size_t size() const { return buf.size(); }

  private:
    std::vector<std::uint8_t> buf;
};

/** Bounds-checked reader over a checkpoint blob. */
class BlobReader
{
  public:
    BlobReader(const std::uint8_t *data, std::size_t len)
        : cur(data), end(data + len)
    {
    }

    explicit BlobReader(const std::vector<std::uint8_t> &blob)
        : BlobReader(blob.data(), blob.size())
    {
    }

    template <typename T>
    T
    u()
    {
        static_assert(std::is_integral<T>::value ||
                          std::is_enum<T>::value,
                      "BlobReader::u yields integral/enum types");
        using U = typename std::make_unsigned<
            typename std::conditional<std::is_enum<T>::value,
                                      std::underlying_type<T>,
                                      std::enable_if<true, T>>::type::
                type>::type;
        need(sizeof(U));
        U v = 0;
        for (std::size_t i = 0; i < sizeof(U); ++i)
            v |= static_cast<U>(cur[i]) << (8 * i);
        cur += sizeof(U);
        return static_cast<T>(v);
    }

    bool
    b()
    {
        const std::uint8_t v = u<std::uint8_t>();
        if (v > 1)
            throw CheckpointError("corrupt bool encoding");
        return v != 0;
    }

    void
    bytes(void *dst, std::size_t len)
    {
        need(len);
        std::memcpy(dst, cur, len);
        cur += len;
    }

    std::string
    str()
    {
        const std::uint64_t len = u<std::uint64_t>();
        need(len);
        std::string s(reinterpret_cast<const char *>(cur),
                      static_cast<std::size_t>(len));
        cur += len;
        return s;
    }

    /** Whether the next length-prefixed string equals @p s, compared
     *  in place (no copy); the string is consumed either way. */
    bool
    strEquals(std::string_view s)
    {
        const std::uint64_t len = u<std::uint64_t>();
        need(len);
        const std::string_view saved(reinterpret_cast<const char *>(cur),
                                     static_cast<std::size_t>(len));
        cur += len;
        return saved == s;
    }

    /** A length read from the stream, sanity-bounded to what the
     *  remaining bytes could possibly hold (element size @p elem). */
    std::size_t
    count(std::size_t elem)
    {
        const std::uint64_t n = u<std::uint64_t>();
        if (elem > 0 && n > remaining() / elem)
            throw CheckpointError("element count exceeds blob size");
        return static_cast<std::size_t>(n);
    }

    std::size_t
    remaining() const
    {
        return static_cast<std::size_t>(end - cur);
    }

    bool atEnd() const { return cur == end; }

  private:
    void
    need(std::size_t len)
    {
        if (remaining() < len)
            throw CheckpointError("truncated blob");
    }

    const std::uint8_t *cur;
    const std::uint8_t *end;
};

/**
 * CRC-32C (Castagnoli), bitwise implementation. Slow-but-simple is
 * fine: the trailer guards against torn checkpoint files, not
 * high-rate streaming.
 */
inline std::uint32_t
crc32c(const std::uint8_t *data, std::size_t len)
{
    std::uint32_t crc = 0xffffffffu;
    for (std::size_t i = 0; i < len; ++i) {
        crc ^= data[i];
        for (int k = 0; k < 8; ++k)
            crc = (crc >> 1) ^ (0x82f63b78u & (0u - (crc & 1u)));
    }
    return crc ^ 0xffffffffu;
}

} // namespace slpmt

#endif // SLPMT_CHECKPOINT_SERDE_HH
