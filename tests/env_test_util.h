/**
 * @file
 * The two env stacks the application tests run on: ZonedEnv over a
 * RAIZN array and BlockEnv over an mdraid array, both storing data.
 */
#pragma once

#include <memory>
#include <ostream>
#include <string>

#include "env/block_env.h"
#include "env/zoned_env.h"
#include "wkld/setup.h"

namespace raizn {

enum class EnvKind { kZonedRaizn, kBlockMdraid };

inline std::string
env_kind_name(EnvKind kind)
{
    return kind == EnvKind::kZonedRaizn ? "ZonedRaizn" : "BlockMdraid";
}

inline void
PrintTo(EnvKind kind, std::ostream *os)
{
    *os << env_kind_name(kind);
}

/// One array and the env over it.
struct EnvStack {
    RaiznArray raizn;
    MdArray md;
    std::unique_ptr<FileEnv> env;

    EnvStack(EnvKind kind, BenchScale scale)
    {
        scale.data_mode = DataMode::kStore;
        if (kind == EnvKind::kZonedRaizn) {
            raizn = make_raizn_array(scale);
            env = std::make_unique<ZonedEnv>(raizn.loop.get(),
                                             raizn.vol.get());
        } else {
            md = make_mdraid_array(scale);
            env = std::make_unique<BlockEnv>(md.loop.get(), md.vol.get());
        }
    }
};

} // namespace raizn
