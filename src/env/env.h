/**
 * @file
 * Storage environment abstraction between the KV store and the
 * volumes, standing in for the paper's F2FS layer. One file layer
 * (FileEnv) implements it over a ZonedArray, with two placements:
 * ZonedEnv (append-only files over a RAIZN volume, ZenFS/F2FS-style)
 * and BlockEnv (extent allocator over mdraid).
 *
 * The interface is synchronous: each call drives the shared event
 * loop until its device IO completes, advancing virtual time. This
 * models a single-application host; concurrency inside the LSM is
 * approximated by interleaving operations (documented in DESIGN.md).
 */
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/units.h"

namespace raizn {

class EventLoop;

/// Append-only file handle.
class WritableFile
{
  public:
    virtual ~WritableFile() = default;
    virtual Status append(const std::vector<uint8_t> &data) = 0;
    /// Durably persists all appended data.
    virtual Status sync() = 0;
    virtual Status close() = 0;
    virtual uint64_t size() const = 0;
};

/// Random-access read handle.
class ReadableFile
{
  public:
    virtual ~ReadableFile() = default;
    virtual Result<std::vector<uint8_t>> read(uint64_t offset,
                                              uint64_t length) = 0;
    virtual uint64_t size() const = 0;
};

/// Environment statistics (for benches and GC accounting).
struct EnvStats {
    uint64_t files_created = 0;
    uint64_t files_deleted = 0;
    uint64_t bytes_appended = 0;
    uint64_t bytes_read = 0;
    uint64_t gc_relocated_bytes = 0; ///< zoned env cleaning traffic
    uint64_t zones_reclaimed = 0;

    /// Name/value enumeration — single source of truth for metrics-
    /// registry linkage (obs::link_stats) and rendering.
    template <typename Fn>
    void
    for_each_field(Fn fn) const
    {
        fn("files_created", files_created);
        fn("files_deleted", files_deleted);
        fn("bytes_appended", bytes_appended);
        fn("bytes_read", bytes_read);
        fn("gc_relocated_bytes", gc_relocated_bytes);
        fn("zones_reclaimed", zones_reclaimed);
    }
};

class Env
{
  public:
    virtual ~Env() = default;

    virtual Result<std::unique_ptr<WritableFile>>
    new_writable(const std::string &name) = 0;
    virtual Result<std::unique_ptr<ReadableFile>>
    open_readable(const std::string &name) = 0;
    virtual Status delete_file(const std::string &name) = 0;
    virtual bool file_exists(const std::string &name) const = 0;
    virtual Result<uint64_t> file_size(const std::string &name) const = 0;
    virtual std::vector<std::string> list_files() const = 0;
    /// Free capacity in bytes (after GC could run).
    virtual uint64_t free_bytes() const = 0;

    virtual const EnvStats &stats() const = 0;
};

} // namespace raizn
