#include "kv/bloom.h"

#include "common/kernels.h"

namespace raizn {

namespace {
constexpr int kBitsPerKey = 10;
constexpr int kProbes = 6;

uint64_t
hash_key(const std::string &key)
{
    uint32_t a = crc32c(key.data(), key.size());
    uint32_t b = crc32c(key.data(), key.size(), 0x9747b28c);
    return (static_cast<uint64_t>(a) << 32) | b;
}
} // namespace

std::vector<uint8_t>
BloomFilter::build(const std::vector<std::string> &keys)
{
    size_t bits = keys.size() * kBitsPerKey;
    if (bits < 64)
        bits = 64;
    std::vector<uint8_t> filter((bits + 7) / 8, 0);
    bits = filter.size() * 8;
    for (const std::string &key : keys) {
        uint64_t h = hash_key(key);
        uint64_t delta = (h >> 33) | (h << 31);
        for (int i = 0; i < kProbes; ++i) {
            uint64_t bit = h % bits;
            filter[bit / 8] |= static_cast<uint8_t>(1u << (bit % 8));
            h += delta;
        }
    }
    return filter;
}

bool
BloomFilter::may_contain(const std::vector<uint8_t> &filter,
                         const std::string &key)
{
    if (filter.empty())
        return true;
    size_t bits = filter.size() * 8;
    uint64_t h = hash_key(key);
    uint64_t delta = (h >> 33) | (h << 31);
    for (int i = 0; i < kProbes; ++i) {
        uint64_t bit = h % bits;
        if (!(filter[bit / 8] & (1u << (bit % 8))))
            return false;
        h += delta;
    }
    return true;
}

} // namespace raizn
