// Deterministic batch parallelism for the analysis layer.
//
// The batch drivers (Monte Carlo, sweeps, sensitivities) are embarrassingly
// parallel: every item is independent, expensive, and writes one
// preallocated result slot. This header provides the primitive they need —
// `parallel_for_index`, a fork-join over std::threads that claim indices
// from a shared atomic cursor, so item granularity can be very uneven (a
// sample that climbs the whole recovery ladder next to one that converges
// instantly) without idling anyone.
//
// Determinism contract (what makes threads > 1 safe to expose as a CLI
// knob): callers draw all per-item randomness up front, bodies write only
// their own index-addressed slot, and any order-sensitive side effects
// (summary records, survivor lists) are replayed sequentially after the
// join. Under that contract the output is bit-for-bit identical for any
// thread count, which tests/test_parallel_equivalence.cpp enforces.
//
// Exceptions thrown by a body are captured; the first one (by completion
// order) is rethrown on the calling thread after all workers finish the
// items they already claimed. Remaining unclaimed items are skipped.
//
// Cancellation: when a batch carries a RunContext, every worker polls it
// before claiming the next item. A tripped token (or an expired deadline)
// drains the batch exactly like an exception does — in-flight items finish,
// unclaimed items are skipped — but *without* an error: the returned
// BatchStatus reports `stopped` so the driver can tell "cancelled" from
// "crashed" and account the unclaimed items as not-run.
#pragma once

#include "support/runcontext.hpp"

#include <cstddef>
#include <functional>

namespace ssnkit::support {

/// What a batch actually did: how many bodies ran to completion and whether
/// a RunContext stop drained the job early. (An exception rethrows instead;
/// `stopped` is only ever set by cooperative cancellation.)
struct BatchStatus {
  std::size_t completed = 0;
  bool stopped = false;
};

/// Normalize a thread-count knob: values > 0 pass through (capped at 64);
/// 0 or negative means "auto" = hardware concurrency clamped to [1, 16].
int resolve_threads(int requested);

/// Run body(i) for every i in [0, count) on min(resolve_threads(threads),
/// count) workers: the caller plus that many minus one std::threads,
/// joined before the return. threads <= 1 — and any count <= 1 — starts no
/// thread, so the serial path is the plain loop (including the per-item
/// RunContext poll when `ctx` is non-null). The first exception a body
/// throws is rethrown here after the join. When `ctx` is non-null, workers
/// poll it before claiming each item and drain cleanly on stop (reported
/// via the returned status).
BatchStatus parallel_for_index(int threads, std::size_t count,
                               const std::function<void(std::size_t)>& body,
                               const RunContext* ctx = nullptr);

}  // namespace ssnkit::support
