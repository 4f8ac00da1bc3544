/**
 * @file
 * The three benchmark workloads. Each builds its own stack, runs its
 * phases once for the given seed, checks its outputs, and returns the
 * rep's record (per-layer metrics too when Options::traced).
 */
#pragma once

#include "common.h"

namespace rzbench {

RepResult run_fio_timing(const Options &o);
RepResult run_kv_bulk(const Options &o);
RepResult run_oltp_sync(const Options &o);

} // namespace rzbench
