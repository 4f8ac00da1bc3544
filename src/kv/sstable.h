/**
 * @file
 * Sorted String Table: immutable on-Env file of sorted key/value
 * records with a sparse index and a bloom filter.
 *
 * Layout: [records][sparse index][bloom][footer(40B)]
 *   record: klen u32 | vlen u32 (UINT32_MAX = tombstone) | key | value
 *   index entry: key | data offset u64 (one per ~4 KiB of records)
 *   footer: index_off, index_len, bloom_off, bloom_len, magic
 */
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "env/env.h"

namespace raizn {

/// One key/value pair; nullopt value = deletion tombstone.
using KvEntry = std::pair<std::string, std::optional<std::string>>;

class SstWriter
{
  public:
    /// Writes `entries` (sorted, unique keys) to `name` on `env`.
    static Status write(Env *env, const std::string &name,
                        const std::vector<KvEntry> &entries);
};

class SstReader
{
  public:
    /// Opens the table, loading index + bloom into memory.
    static Result<std::unique_ptr<SstReader>>
    open(Env *env, const std::string &name);

    /// False when the bloom filter proves `key` is absent from this
    /// table, so get() would only read a block to miss.
    bool may_contain(const std::string &key) const;

    /**
     * Point lookup. Does not probe the bloom filter; callers check
     * may_contain() first. Returns:
     *  - kOk with the value,
     *  - kNotFound if the key is absent from this table,
     *  - a value-less kOk via `tombstone=true` when deleted here.
     */
    Result<std::string> get(const std::string &key, bool *tombstone);

    /// Reads every entry (used by compaction merges).
    Result<std::vector<KvEntry>> load_all();

    const std::string &smallest() const { return smallest_; }
    const std::string &largest() const { return largest_; }
    uint64_t file_bytes() const { return file_bytes_; }

  private:
    SstReader() = default;

    Env *env_ = nullptr;
    std::string name_;
    std::unique_ptr<ReadableFile> file_;
    std::map<std::string, uint64_t> index_; ///< first key -> offset
    std::vector<uint8_t> bloom_;
    uint64_t data_end_ = 0;
    uint64_t file_bytes_ = 0;
    std::string smallest_, largest_;
};

} // namespace raizn
