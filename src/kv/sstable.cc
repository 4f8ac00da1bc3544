#include "kv/sstable.h"

#include <cassert>

#include "common/logging.h"
#include "kv/bloom.h"
#include "kv/coding.h"

namespace raizn {

namespace {
constexpr uint64_t kSstMagic = 0x52415a4e53535431ull; // "RAZNSST1"
constexpr uint32_t kTombstone = UINT32_MAX;
constexpr uint64_t kIndexInterval = 4096; // bytes of records per entry
} // namespace

Status
SstWriter::write(Env *env, const std::string &name,
                 const std::vector<KvEntry> &entries)
{
    auto file = env->new_writable(name);
    if (!file.is_ok())
        return file.status();
    WritableFile *out = file.value().get();

    // The record image is sized up front and filled with memcpy
    // appends: it is the table's one copy of the payload before the
    // env writes it out.
    uint64_t data_bytes = 0;
    for (const KvEntry &e : entries)
        data_bytes += 8 + e.first.size() + (e.second ? e.second->size() : 0);
    std::vector<uint8_t> data;
    data.reserve(data_bytes);
    std::vector<uint8_t> index;
    std::vector<std::string> keys;
    keys.reserve(entries.size());
    uint64_t last_index_off = UINT64_MAX;
    for (const KvEntry &e : entries) {
        if (last_index_off == UINT64_MAX ||
            data.size() - last_index_off >= kIndexInterval) {
            put_str(index, e.first);
            put_u64(index, data.size());
            last_index_off = data.size();
        }
        put_u32(data, static_cast<uint32_t>(e.first.size()));
        put_u32(data, e.second
                          ? static_cast<uint32_t>(e.second->size())
                          : kTombstone);
        put_bytes(data, e.first.data(), e.first.size());
        if (e.second)
            put_bytes(data, e.second->data(), e.second->size());
        keys.push_back(e.first);
    }
    std::vector<uint8_t> bloom = BloomFilter::build(keys);

    uint64_t index_off = data.size();
    uint64_t bloom_off = index_off + index.size();
    std::vector<uint8_t> footer;
    put_u64(footer, index_off);
    put_u64(footer, index.size());
    put_u64(footer, bloom_off);
    put_u64(footer, bloom.size());
    put_u64(footer, kSstMagic);

    Status st = out->append(data);
    if (st)
        st = out->append(index);
    if (st)
        st = out->append(bloom);
    if (st)
        st = out->append(footer);
    if (st)
        st = out->close();
    return st;
}

Result<std::unique_ptr<SstReader>>
SstReader::open(Env *env, const std::string &name)
{
    auto file = env->open_readable(name);
    if (!file.is_ok())
        return file.status();

    auto reader = std::unique_ptr<SstReader>(new SstReader());
    reader->env_ = env;
    reader->name_ = name;
    reader->file_ = std::move(file).value();
    reader->file_bytes_ = reader->file_->size();
    if (reader->file_bytes_ < 40)
        return Status(StatusCode::kCorruption, "sst too small");

    auto footer = reader->file_->read(reader->file_bytes_ - 40, 40);
    if (!footer.is_ok())
        return footer.status();
    Cursor f(footer.value());
    uint64_t index_off = f.u64();
    uint64_t index_len = f.u64();
    uint64_t bloom_off = f.u64();
    uint64_t bloom_len = f.u64();
    if (!f.ok() || f.u64() != kSstMagic)
        return Status(StatusCode::kCorruption, "bad sst footer");

    reader->data_end_ = index_off;
    if (index_len > 0) {
        auto idx = reader->file_->read(index_off, index_len);
        if (!idx.is_ok())
            return idx.status();
        Cursor c(idx.value());
        while (c.ok() && c.remaining() > 0) {
            std::string key = c.str();
            uint64_t off = c.u64();
            if (!c.ok())
                break;
            reader->index_[key] = off;
        }
        if (!reader->index_.empty())
            reader->smallest_ = reader->index_.begin()->first;
    }
    if (bloom_len > 0) {
        auto bl = reader->file_->read(bloom_off, bloom_len);
        if (!bl.is_ok())
            return bl.status();
        reader->bloom_ = std::move(bl).value();
    }
    // Largest key: scan the final index block's records.
    if (!reader->index_.empty()) {
        uint64_t last_off = reader->index_.rbegin()->second;
        auto blk = reader->file_->read(last_off,
                                       reader->data_end_ - last_off);
        if (!blk.is_ok())
            return blk.status();
        const std::vector<uint8_t> &bytes = blk.value();
        reader->largest_ = reader->smallest_;
        size_t off = 0;
        while (off + 8 <= bytes.size()) {
            uint32_t klen = get_u32(bytes.data() + off);
            uint32_t vlen = get_u32(bytes.data() + off + 4);
            size_t vbytes = vlen == kTombstone ? 0 : vlen;
            if (off + 8 + klen + vbytes > bytes.size())
                break;
            reader->largest_.assign(
                reinterpret_cast<const char *>(bytes.data() + off + 8),
                klen);
            off += 8 + klen + vbytes;
        }
    }
    return reader;
}

bool
SstReader::may_contain(const std::string &key) const
{
    return BloomFilter::may_contain(bloom_, key);
}

Result<std::string>
SstReader::get(const std::string &key, bool *tombstone)
{
    *tombstone = false;
    if (index_.empty())
        return Status(StatusCode::kNotFound, "empty table");
    auto it = index_.upper_bound(key);
    if (it == index_.begin())
        return Status(StatusCode::kNotFound, "below smallest");
    --it;
    uint64_t start = it->second;
    auto next = std::next(it);
    uint64_t end = next == index_.end() ? data_end_ : next->second;
    auto blk = file_->read(start, end - start);
    if (!blk.is_ok())
        return blk.status();
    const std::vector<uint8_t> &bytes = blk.value();
    size_t off = 0;
    while (off + 8 <= bytes.size()) {
        uint32_t klen = get_u32(bytes.data() + off);
        uint32_t vlen = get_u32(bytes.data() + off + 4);
        size_t vbytes = vlen == kTombstone ? 0 : vlen;
        if (off + 8 + klen + vbytes > bytes.size())
            break;
        std::string k(reinterpret_cast<const char *>(bytes.data() + off +
                                                     8),
                      klen);
        if (k == key) {
            if (vlen == kTombstone) {
                *tombstone = true;
                return std::string();
            }
            return std::string(
                reinterpret_cast<const char *>(bytes.data() + off + 8 +
                                               klen),
                vlen);
        }
        if (k > key)
            break;
        off += 8 + klen + vbytes;
    }
    return Status(StatusCode::kNotFound, "not in block");
}

Result<std::vector<KvEntry>>
SstReader::load_all()
{
    auto blk = file_->read(0, data_end_);
    if (!blk.is_ok())
        return blk.status();
    const std::vector<uint8_t> &bytes = blk.value();
    std::vector<KvEntry> out;
    size_t off = 0;
    while (off + 8 <= bytes.size()) {
        uint32_t klen = get_u32(bytes.data() + off);
        uint32_t vlen = get_u32(bytes.data() + off + 4);
        size_t vbytes = vlen == kTombstone ? 0 : vlen;
        if (off + 8 + klen + vbytes > bytes.size())
            break;
        std::string k(
            reinterpret_cast<const char *>(bytes.data() + off + 8), klen);
        std::optional<std::string> v;
        if (vlen != kTombstone) {
            v = std::string(reinterpret_cast<const char *>(
                                bytes.data() + off + 8 + klen),
                            vlen);
        }
        out.emplace_back(std::move(k), std::move(v));
        off += 8 + klen + vbytes;
    }
    return out;
}

} // namespace raizn
