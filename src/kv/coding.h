/**
 * @file
 * Little-endian fixed-width encoding helpers for KV file formats.
 */
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace raizn {

inline void
put_u32(std::vector<uint8_t> &buf, uint32_t v)
{
    size_t off = buf.size();
    buf.resize(off + 4);
    std::memcpy(buf.data() + off, &v, 4);
}

inline void
put_u64(std::vector<uint8_t> &buf, uint64_t v)
{
    size_t off = buf.size();
    buf.resize(off + 8);
    std::memcpy(buf.data() + off, &v, 8);
}

/// Appends `n` raw bytes with one memcpy (no per-byte conversion).
inline void
put_bytes(std::vector<uint8_t> &buf, const void *p, size_t n)
{
    const auto *b = static_cast<const uint8_t *>(p);
    buf.insert(buf.end(), b, b + n);
}

inline void
put_str(std::vector<uint8_t> &buf, const std::string &s)
{
    put_u32(buf, static_cast<uint32_t>(s.size()));
    put_bytes(buf, s.data(), s.size());
}

inline uint32_t
get_u32(const uint8_t *p)
{
    uint32_t v;
    std::memcpy(&v, p, 4);
    return v;
}

inline uint64_t
get_u64(const uint8_t *p)
{
    uint64_t v;
    std::memcpy(&v, p, 8);
    return v;
}

/// Bounds-checked cursor over a byte buffer.
class Cursor
{
  public:
    Cursor(const uint8_t *data, size_t size) : p_(data), end_(data + size)
    {
    }
    explicit Cursor(const std::vector<uint8_t> &buf)
        : Cursor(buf.data(), buf.size())
    {
    }

    bool ok() const { return ok_; }
    size_t remaining() const { return static_cast<size_t>(end_ - p_); }

    uint32_t
    u32()
    {
        if (remaining() < 4) {
            ok_ = false;
            return 0;
        }
        uint32_t v = get_u32(p_);
        p_ += 4;
        return v;
    }
    uint64_t
    u64()
    {
        if (remaining() < 8) {
            ok_ = false;
            return 0;
        }
        uint64_t v = get_u64(p_);
        p_ += 8;
        return v;
    }
    std::string
    str()
    {
        uint32_t n = u32();
        if (!ok_ || remaining() < n) {
            ok_ = false;
            return {};
        }
        std::string s(reinterpret_cast<const char *>(p_), n);
        p_ += n;
        return s;
    }

  private:
    const uint8_t *p_;
    const uint8_t *end_;
    bool ok_ = true;
};

} // namespace raizn
