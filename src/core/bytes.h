/**
 * @file
 * Explicit little-endian byte packing, shared by every binary codec
 * in the tree (histogram serialization, the aib.net/1 wire protocol,
 * worker-result pipes). Values are packed byte-by-byte, so encoded
 * streams are identical across host endianness and never rely on
 * unaligned loads; doubles travel as their IEEE-754 bit patterns, so
 * round trips are bitwise even for NaN payloads.
 */

#ifndef AIB_CORE_BYTES_H
#define AIB_CORE_BYTES_H

#include <cstdint>
#include <cstring>
#include <string>

namespace aib::core::bytes {

inline void
putU16(std::string *out, std::uint16_t v)
{
    out->push_back(static_cast<char>(v & 0xFF));
    out->push_back(static_cast<char>((v >> 8) & 0xFF));
}

inline void
putU32(std::string *out, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

inline void
putU64(std::string *out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

inline void
putF64(std::string *out, double v)
{
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    putU64(out, bits);
}

/**
 * Bounds-checked cursor over an encoded buffer. Every get* returns
 * false (leaving @p *v untouched) once the buffer is exhausted, so
 * decoders turn truncation into a clean parse error instead of a
 * read past the end.
 */
class Reader
{
  public:
    Reader(const void *data, std::size_t size)
        : p_(static_cast<const unsigned char *>(data)), size_(size)
    {}

    explicit Reader(const std::string &buf)
        : Reader(buf.data(), buf.size())
    {}

    std::size_t remaining() const { return size_ - pos_; }

    bool
    getU8(std::uint8_t *v)
    {
        if (remaining() < 1)
            return false;
        *v = p_[pos_];
        pos_ += 1;
        return true;
    }

    bool
    getU16(std::uint16_t *v)
    {
        if (remaining() < 2)
            return false;
        *v = static_cast<std::uint16_t>(
            static_cast<std::uint16_t>(p_[pos_]) |
            static_cast<std::uint16_t>(p_[pos_ + 1]) << 8);
        pos_ += 2;
        return true;
    }

    bool
    getU32(std::uint32_t *v)
    {
        if (remaining() < 4)
            return false;
        std::uint32_t r = 0;
        for (int i = 0; i < 4; ++i)
            r |= static_cast<std::uint32_t>(p_[pos_ + static_cast<std::size_t>(i)])
                 << (8 * i);
        pos_ += 4;
        *v = r;
        return true;
    }

    bool
    getU64(std::uint64_t *v)
    {
        if (remaining() < 8)
            return false;
        std::uint64_t r = 0;
        for (int i = 0; i < 8; ++i)
            r |= static_cast<std::uint64_t>(p_[pos_ + static_cast<std::size_t>(i)])
                 << (8 * i);
        pos_ += 8;
        *v = r;
        return true;
    }

    bool
    getF64(double *v)
    {
        std::uint64_t bits;
        if (!getU64(&bits))
            return false;
        std::memcpy(v, &bits, sizeof(*v));
        return true;
    }

    bool
    getBytes(std::string *out, std::size_t n)
    {
        if (remaining() < n)
            return false;
        out->assign(reinterpret_cast<const char *>(p_) + pos_, n);
        pos_ += n;
        return true;
    }

  private:
    const unsigned char *p_;
    std::size_t size_;
    std::size_t pos_ = 0;
};

} // namespace aib::core::bytes

#endif // AIB_CORE_BYTES_H
