/**
 * @file
 * A miniature LSM key-value store (RocksDB stand-in for the paper's
 * application benchmarks): write-ahead log, in-memory memtable,
 * leveled SSTables with bloom filters, and inline compaction. Runs on
 * any Env (ZonedEnv over RAIZN, BlockEnv over mdraid) so the IO
 * pattern RocksDB generates — sequential SST writes, file deletes,
 * point reads — hits the arrays exactly as in §6.3.
 */
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "env/env.h"
#include "kv/sstable.h"

namespace raizn {

struct DbOptions {
    uint64_t memtable_bytes = 4 * kMiB;
    uint64_t target_file_bytes = 4 * kMiB;
    uint32_t l0_compaction_trigger = 4;
    uint64_t l1_bytes = 16 * kMiB;
    double level_growth = 8.0;
    uint32_t max_levels = 5;
    bool sync_wal = false; ///< fsync every write (db_bench default: off)
};

struct DbStats {
    uint64_t puts = 0;
    uint64_t gets = 0;
    uint64_t deletes = 0;
    uint64_t memtable_flushes = 0;
    uint64_t compactions = 0;
    uint64_t compaction_bytes_read = 0;
    uint64_t compaction_bytes_written = 0;
    uint64_t bloom_skips = 0;
};

class Db
{
  public:
    static Result<std::unique_ptr<Db>> open(Env *env, DbOptions options);
    ~Db();

    Status put(const std::string &key, const std::string &value);
    Status delete_key(const std::string &key);
    Result<std::string> get(const std::string &key);

    /// Flushes the memtable and compacts until shape invariants hold.
    Status flush_all();

    const DbStats &stats() const { return stats_; }
    /// Number of SST files per level (tests/introspection).
    std::vector<size_t> level_file_counts() const;

  private:
    struct FileMeta {
        uint64_t number;
        std::string name;
        std::unique_ptr<SstReader> reader;
        uint64_t bytes;
    };

    Db(Env *env, DbOptions options);

    /// Logs and applies one write; a null `value` is a delete.
    Status write_impl(const std::string &key, const std::string *value);
    Status flush_memtable();
    Status maybe_compact();
    Status compact_l0();
    Status compact_level(uint32_t level);
    Status write_merged(std::vector<KvEntry> entries, uint32_t level);
    uint64_t level_bytes(uint32_t level) const;
    std::string sst_name(uint64_t number) const;
    Status open_wal();

    Env *env_;
    DbOptions opt_;
    std::map<std::string, std::optional<std::string>> mem_;
    uint64_t mem_bytes_ = 0;
    std::unique_ptr<WritableFile> wal_;
    std::vector<uint8_t> wal_rec_; ///< reused WAL record buffer
    uint64_t wal_number_ = 0;
    uint64_t next_file_ = 1;
    /// levels_[0] ordered newest-first; deeper levels sorted by key.
    std::vector<std::vector<FileMeta>> levels_;
    DbStats stats_;
};

} // namespace raizn
