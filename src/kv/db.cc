#include "kv/db.h"

#include <algorithm>
#include <cassert>

#include "common/logging.h"
#include "kv/coding.h"

namespace raizn {

Db::Db(Env *env, DbOptions options) : env_(env), opt_(options)
{
    levels_.resize(opt_.max_levels);
}

Db::~Db()
{
    if (wal_)
        wal_->close();
}

Result<std::unique_ptr<Db>>
Db::open(Env *env, DbOptions options)
{
    auto db = std::unique_ptr<Db>(new Db(env, options));
    Status st = db->open_wal();
    if (!st)
        return st;
    return db;
}

std::string
Db::sst_name(uint64_t number) const
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%06llu.sst",
                  (unsigned long long)number);
    return buf;
}

Status
Db::open_wal()
{
    wal_number_ = next_file_++;
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%06llu.wal",
                  (unsigned long long)wal_number_);
    auto wal = env_->new_writable(buf);
    if (!wal.is_ok())
        return wal.status();
    wal_ = std::move(wal).value();
    return Status::ok();
}

Status
Db::write_impl(const std::string &key, const std::string *value)
{
    // WAL record: klen | vlen(or max) | key | value, built in the one
    // reused record buffer.
    std::vector<uint8_t> &rec = wal_rec_;
    rec.clear();
    put_u32(rec, static_cast<uint32_t>(key.size()));
    put_u32(rec, value ? static_cast<uint32_t>(value->size())
                       : UINT32_MAX);
    put_bytes(rec, key.data(), key.size());
    if (value)
        put_bytes(rec, value->data(), value->size());
    Status st = wal_->append(rec);
    if (!st)
        return st;
    if (opt_.sync_wal) {
        st = wal_->sync();
        if (!st)
            return st;
    }

    mem_bytes_ += key.size() + (value ? value->size() : 0) + 16;
    if (value)
        mem_[key] = *value;
    else
        mem_[key] = std::nullopt;
    if (mem_bytes_ >= opt_.memtable_bytes) {
        st = flush_memtable();
        if (!st)
            return st;
        st = maybe_compact();
        if (!st)
            return st;
    }
    return Status::ok();
}

Status
Db::put(const std::string &key, const std::string &value)
{
    stats_.puts++;
    return write_impl(key, &value);
}

Status
Db::delete_key(const std::string &key)
{
    stats_.deletes++;
    return write_impl(key, nullptr);
}

Result<std::string>
Db::get(const std::string &key)
{
    stats_.gets++;
    auto mit = mem_.find(key);
    if (mit != mem_.end()) {
        if (!mit->second)
            return Status(StatusCode::kNotFound, "deleted");
        return *mit->second;
    }
    // L0 newest first, then deeper levels.
    for (uint32_t level = 0; level < levels_.size(); ++level) {
        for (FileMeta &f : levels_[level]) {
            if (level > 0) {
                if (key < f.reader->smallest() ||
                    key > f.reader->largest()) {
                    continue;
                }
            }
            if (!f.reader->may_contain(key)) {
                stats_.bloom_skips++;
                continue;
            }
            bool tombstone = false;
            auto res = f.reader->get(key, &tombstone);
            if (tombstone)
                return Status(StatusCode::kNotFound, "deleted");
            if (res.is_ok())
                return res;
            if (res.status().code() != StatusCode::kNotFound)
                return res.status();
        }
    }
    return Status(StatusCode::kNotFound, key);
}

Status
Db::flush_memtable()
{
    if (mem_.empty())
        return Status::ok();
    stats_.memtable_flushes++;
    std::vector<KvEntry> entries(mem_.begin(), mem_.end());
    uint64_t number = next_file_++;
    std::string name = sst_name(number);
    Status st = SstWriter::write(env_, name, entries);
    if (!st)
        return st;
    auto reader = SstReader::open(env_, name);
    if (!reader.is_ok())
        return reader.status();
    FileMeta meta;
    meta.number = number;
    meta.name = name;
    meta.bytes = reader.value()->file_bytes();
    meta.reader = std::move(reader).value();
    levels_[0].insert(levels_[0].begin(), std::move(meta));

    mem_.clear();
    mem_bytes_ = 0;
    // Retire the WAL: its contents are now durable in the SST.
    wal_->close();
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%06llu.wal",
                  (unsigned long long)wal_number_);
    env_->delete_file(buf);
    return open_wal();
}

uint64_t
Db::level_bytes(uint32_t level) const
{
    uint64_t total = 0;
    for (const FileMeta &f : levels_[level])
        total += f.bytes;
    return total;
}

Status
Db::maybe_compact()
{
    for (int round = 0; round < 8; ++round) {
        if (levels_[0].size() >= opt_.l0_compaction_trigger) {
            Status st = compact_l0();
            if (!st)
                return st;
            continue;
        }
        bool did = false;
        uint64_t limit = opt_.l1_bytes;
        for (uint32_t level = 1; level + 1 < levels_.size(); ++level) {
            if (level_bytes(level) > limit) {
                Status st = compact_level(level);
                if (!st)
                    return st;
                did = true;
                break;
            }
            limit = static_cast<uint64_t>(static_cast<double>(limit) *
                                          opt_.level_growth);
        }
        if (!did)
            break;
    }
    return Status::ok();
}

Status
Db::compact_l0()
{
    stats_.compactions++;
    // Merge every L0 file (newest wins) with every overlapping L1 file.
    std::map<std::string, std::optional<std::string>> merged;
    // Oldest first so newer entries overwrite.
    std::string lo, hi;
    bool have_range = false;
    for (auto it = levels_[0].rbegin(); it != levels_[0].rend(); ++it) {
        auto all = it->reader->load_all();
        if (!all.is_ok())
            return all.status();
        stats_.compaction_bytes_read += it->bytes;
        for (auto &e : all.value()) {
            if (!have_range) {
                lo = hi = e.first;
                have_range = true;
            }
            lo = std::min(lo, e.first);
            hi = std::max(hi, e.first);
            merged[e.first] = std::move(e.second);
        }
    }
    // Overlapping L1 files: older than everything in L0.
    std::vector<FileMeta> keep;
    for (FileMeta &f : levels_[1]) {
        if (f.reader->largest() < lo || f.reader->smallest() > hi) {
            keep.push_back(std::move(f));
            continue;
        }
        auto all = f.reader->load_all();
        if (!all.is_ok())
            return all.status();
        stats_.compaction_bytes_read += f.bytes;
        for (auto &e : all.value())
            merged.emplace(e.first, std::move(e.second)); // L0 wins
        env_->delete_file(f.name);
    }
    for (FileMeta &f : levels_[0])
        env_->delete_file(f.name);
    levels_[0].clear();
    levels_[1] = std::move(keep);

    std::vector<KvEntry> entries(
        std::make_move_iterator(merged.begin()),
        std::make_move_iterator(merged.end()));
    return write_merged(std::move(entries), 1);
}

Status
Db::compact_level(uint32_t level)
{
    stats_.compactions++;
    assert(level >= 1 && level + 1 < levels_.size());
    if (levels_[level].empty())
        return Status::ok();
    // Pick the first (smallest-key) file and merge it down.
    FileMeta victim = std::move(levels_[level].front());
    levels_[level].erase(levels_[level].begin());
    std::map<std::string, std::optional<std::string>> merged;
    auto all = victim.reader->load_all();
    if (!all.is_ok())
        return all.status();
    stats_.compaction_bytes_read += victim.bytes;
    for (auto &e : all.value())
        merged[e.first] = std::move(e.second);
    std::string lo = victim.reader->smallest();
    std::string hi = victim.reader->largest();
    env_->delete_file(victim.name);

    std::vector<FileMeta> keep;
    for (FileMeta &f : levels_[level + 1]) {
        if (f.reader->largest() < lo || f.reader->smallest() > hi) {
            keep.push_back(std::move(f));
            continue;
        }
        auto older = f.reader->load_all();
        if (!older.is_ok())
            return older.status();
        stats_.compaction_bytes_read += f.bytes;
        for (auto &e : older.value())
            merged.emplace(e.first, std::move(e.second));
        env_->delete_file(f.name);
    }
    levels_[level + 1] = std::move(keep);

    // Bottom level drops tombstones.
    std::vector<KvEntry> entries;
    entries.reserve(merged.size());
    bool bottom = level + 2 == levels_.size();
    for (auto &e : merged) {
        if (bottom && !e.second)
            continue;
        entries.emplace_back(e.first, std::move(e.second));
    }
    return write_merged(std::move(entries), level + 1);
}

Status
Db::write_merged(std::vector<KvEntry> entries, uint32_t level)
{
    // Split into target-size files and insert sorted by smallest key.
    std::vector<FileMeta> new_files;
    size_t i = 0;
    while (i < entries.size()) {
        uint64_t bytes = 0;
        std::vector<KvEntry> chunk;
        while (i < entries.size() && bytes < opt_.target_file_bytes) {
            bytes += entries[i].first.size() +
                (entries[i].second ? entries[i].second->size() : 0) + 8;
            chunk.push_back(std::move(entries[i]));
            i++;
        }
        uint64_t number = next_file_++;
        std::string name = sst_name(number);
        Status st = SstWriter::write(env_, name, chunk);
        if (!st)
            return st;
        auto reader = SstReader::open(env_, name);
        if (!reader.is_ok())
            return reader.status();
        FileMeta meta;
        meta.number = number;
        meta.name = name;
        meta.bytes = reader.value()->file_bytes();
        stats_.compaction_bytes_written += meta.bytes;
        meta.reader = std::move(reader).value();
        new_files.push_back(std::move(meta));
    }
    for (auto &f : new_files)
        levels_[level].push_back(std::move(f));
    std::sort(levels_[level].begin(), levels_[level].end(),
              [](const FileMeta &a, const FileMeta &b) {
                  return a.reader->smallest() < b.reader->smallest();
              });
    return Status::ok();
}

Status
Db::flush_all()
{
    Status st = flush_memtable();
    if (!st)
        return st;
    return maybe_compact();
}

std::vector<size_t>
Db::level_file_counts() const
{
    std::vector<size_t> out;
    for (const auto &level : levels_)
        out.push_back(level.size());
    return out;
}

} // namespace raizn
