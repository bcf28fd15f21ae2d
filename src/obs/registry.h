// Counter/gauge/histogram registry with deterministic round aggregation.
//
// Counters are 64-bit integers (bytes, FLOPs, drops, task counts).  Add
// stages a delta into a pending table under the registry lock; Flush and
// EndRound publish it into the totals.  Adds are safe from any thread and
// integer addition is order-independent, so totals never depend on thread
// count or interleaving; readers see only published state.
//
// Histograms are fixed log2-bucketed int64 distributions (latency µs,
// bytes, batch sizes).  Observe() is staged and published like Add; bucket
// counts, sums and min/max all merge with commutative operations.
// Quantiles (p50/p95/p99) are derived from the bucket counts at export time
// by linear interpolation inside the crossing bucket, clamped to the
// observed [min, max] — never tracked online.
//
// Gauges are doubles (simulated time, wall time, accuracy) set only from
// serial phases.
//
// AddClientRow (serial phases only) stages one row per sampled client.
// EndRound folds the staged rows into the client-scoped counters and
// histograms, untiered and as `<base>@<tier>` twins — all per-client
// accounting is this one serial pass at the round barrier — then snapshots
// the round's counter deltas, histogram deltas and gauges into a row (the
// manifest writer turns the rows into rounds.csv) and drains the client
// rows into the installed client-row sink (obs/journal), or discards them
// when none is installed, so client-row memory is bounded by one round's
// cohort.
//
// Tier-keyed rollups (DESIGN.md §5j) are ordinary counters/histograms named
// `<base>@<tier>` (e.g. "clients_trained@mem16g"); '@' never appears in
// untiered names.  TierKey / SplitTierKey below own that format, so every
// writer splits names the same way.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/mutex.h"
#include "core/thread_annotations.h"

namespace mhbench::obs {

// `<base>@<tier>`: the registry name of `base`'s rollup for one device tier.
std::string TierKey(const std::string& base, const std::string& tier);

// Splits a registry name at its '@': {base, tier} for a tier key, and
// {name, ""} for an untiered name.
struct TierKeyParts {
  std::string base;
  std::string tier;  // "" = untiered name
};
TierKeyParts SplitTierKey(const std::string& name);

class Registry {
 public:
  using CounterId = std::size_t;
  using HistogramId = std::size_t;

  // Bucket 0 holds v <= 0; bucket b in [1, 63] holds v in [2^(b-1), 2^b).
  static constexpr int kHistogramBuckets = 64;

  // Bucket index for a value: 0 for v <= 0, otherwise bit_width(v).
  static int BucketIndex(std::int64_t v);
  // Inclusive lower / upper bound of a bucket (0/0 for bucket 0).
  static std::int64_t BucketLo(int bucket);
  static std::int64_t BucketHi(int bucket);

  // One histogram's merged state.  All fields combine with commutative,
  // associative operations (+, min, max), so merged totals are independent
  // of observation order.
  struct HistogramData {
    std::array<std::int64_t, kHistogramBuckets> buckets{};
    std::int64_t sum = 0;
    std::int64_t min = 0;  // valid only when count() > 0
    std::int64_t max = 0;  // valid only when count() > 0

    std::int64_t count() const;
    void Observe(std::int64_t v);
    void Merge(const HistogramData& other);
    // q in [0, 1]; linear interpolation within the crossing bucket, clamped
    // to [min, max].  0 when empty.
    double Quantile(double q) const;
    bool empty() const { return count() == 0; }
  };

  Registry() = default;

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  // Registers (or looks up) a counter and returns its id.  Thread-safe,
  // but intended for serial setup phases; ids are stable for the
  // registry's lifetime.
  CounterId Counter(const std::string& name) MHB_EXCLUDES(mu_);

  // Stages `delta` for the counter; it becomes visible in the totals at
  // the next Flush/EndRound.  Safe to call concurrently from any thread.
  void Add(CounterId id, std::int64_t delta) MHB_EXCLUDES(mu_);

  // Serial convenience: register + add in one call.
  void AddNamed(const std::string& name, std::int64_t delta);

  // Registers (or looks up) a histogram; same threading contract as
  // Counter.  Histogram and counter names are independent namespaces.
  HistogramId Histogram(const std::string& name) MHB_EXCLUDES(mu_);

  // Records one observation.  Same threading contract as Add.
  void Observe(HistogramId id, std::int64_t value) MHB_EXCLUDES(mu_);

  // Serial convenience: register + observe in one call.
  void ObserveNamed(const std::string& name, std::int64_t value);

  // Sets a gauge for the current round.  Serial phases only.
  void SetGauge(const std::string& name, double value);

  // Registers the client-scoped counters and histograms that EndRound
  // folds client rows into, untiered and as `<base>@<tier>` twins for
  // every name in `tiers`, so a tier that is never sampled still shows up
  // (with zero totals) in every export.  Serial phases only.
  void RegisterClientTiers(const std::vector<std::string>& tiers)
      MHB_EXCLUDES(mu_);

  // Publishes every staged Add/Observe into the totals.  Serial phases
  // only.
  void Flush() MHB_EXCLUDES(mu_);

  // Folds the staged client rows into the client-scoped counters and
  // histograms, publishes everything staged, then snapshots this round's
  // counter/histogram deltas and gauges into a row labelled (`run`,
  // `round`).  With no client rows staged it registers no name.  Serial
  // barrier only.
  void EndRound(const std::string& run, int round) MHB_EXCLUDES(mu_);

  // Total for a counter (0 if never registered).  Includes only published
  // adds.
  std::int64_t Total(const std::string& name) const;
  std::map<std::string, std::int64_t> Totals() const;

  // Merged state of one histogram (empty data if never registered) / all
  // histograms.  Includes only published observations.
  HistogramData HistogramTotals(const std::string& name) const;
  std::map<std::string, HistogramData> Histograms() const;

  // Checkpoint restore (fl/checkpoint): folds previously exported counter
  // deltas and histogram state into the whole-run totals.  Counter imports
  // also advance the per-round delta base, and histogram imports skip the
  // per-round accumulator, so imported history never appears in any
  // subsequent EndRound row — resumed runs report whole-campaign totals
  // but only their own rounds.  Serial phases only.
  void ImportTotals(const std::map<std::string, std::int64_t>& counters,
                    const std::map<std::string, HistogramData>& hists)
      MHB_EXCLUDES(mu_);

  struct RoundRow {
    std::string run;  // run label (the engine uses the algorithm name)
    int round = 0;
    std::map<std::string, std::int64_t> counters;  // deltas for this round
    std::map<std::string, double> gauges;
    std::map<std::string, HistogramData> hists;  // this round's observations
  };
  // Lock-free read of guarded state: legal because it is called only from
  // serial phases (manifest export), when no EndRound can run concurrently.
  const std::vector<RoundRow>& rounds() const MHB_NO_THREAD_SAFETY_ANALYSIS {
    return rounds_;
  }

  // Installs a callback invoked after every EndRound with the row just
  // published (outside the registry lock, on the barrier thread, so the
  // sink may call back into registry accessors).  The CLI uses it to
  // stream rounds.csv incrementally.  Serial phases only; pass an empty
  // function to uninstall.
  void SetRoundSink(std::function<void(const RoundRow&)> sink)
      MHB_EXCLUDES(mu_);

  // One sampled client in one round: the cost model's simulated clock
  // joined with the measured wall time and the round's drop decision.
  // EndRound derives every client-scoped counter and histogram from these
  // rows: trained rows (empty drop_reason) contribute bytes, mflops and the
  // three histograms, dropped rows only their selected/offline/dropped
  // counts.
  struct ClientRow {
    std::string run;
    int round = 0;
    int client = 0;
    // DESIGN.md §5j taxonomy; the engine writes "untiered" for a client
    // without one.  A row with "" folds into the untiered names only.
    std::string device_tier;
    std::string drop_reason;  // "" (trained), "offline", "straggler"
    double sim_compute_s = 0.0;
    double sim_comm_s = 0.0;
    double memory_mb = 0.0;
    double wall_ms = 0.0;  // measured local-training wall time; 0 if dropped
    std::int64_t bytes_up = 0;
    std::int64_t bytes_down = 0;
    std::int64_t train_mflops = 0;
  };
  // Stages one client's row for the current round.  Serial phases only (the
  // engine appends at the round barrier); EndRound drains the staged rows.
  void AddClientRow(ClientRow row) MHB_EXCLUDES(mu_);

  // Installs the per-round client-row drain, invoked by EndRound with the
  // round's staged rows (outside the registry lock, on the barrier thread).
  // Rows staged while no sink is installed are discarded at the barrier —
  // staging memory is bounded by one round's cohort either way.  The CLI
  // wires this to a ClientJournalWriter.  Serial phases only; pass an empty
  // function to uninstall.
  void SetClientRowSink(std::function<void(std::vector<ClientRow>&&)> sink)
      MHB_EXCLUDES(mu_);

 private:
  CounterId CounterLocked(const std::string& name) MHB_REQUIRES(mu_);
  HistogramId HistogramLocked(const std::string& name) MHB_REQUIRES(mu_);
  void FoldClientRowsLocked() MHB_REQUIRES(mu_);
  void FlushLocked() MHB_REQUIRES(mu_);

  mutable core::Mutex mu_;
  std::vector<std::string> names_ MHB_GUARDED_BY(mu_);
  std::unordered_map<std::string, CounterId> ids_ MHB_GUARDED_BY(mu_);
  // Published totals, by id.
  std::vector<std::int64_t> totals_ MHB_GUARDED_BY(mu_);
  // Staged since the last Flush/EndRound, by id.
  std::vector<std::int64_t> pending_ MHB_GUARDED_BY(mu_);
  // Totals at the last EndRound.
  std::vector<std::int64_t> round_base_ MHB_GUARDED_BY(mu_);
  std::vector<std::string> hist_names_ MHB_GUARDED_BY(mu_);
  std::unordered_map<std::string, HistogramId> hist_ids_ MHB_GUARDED_BY(mu_);
  // Published, by histogram id.
  std::vector<HistogramData> hist_totals_ MHB_GUARDED_BY(mu_);
  // Staged since the last Flush/EndRound, by histogram id.
  std::vector<HistogramData> hist_pending_ MHB_GUARDED_BY(mu_);
  // Published since the last EndRound.
  std::vector<HistogramData> hist_round_ MHB_GUARDED_BY(mu_);
  // Current round's gauges.
  std::map<std::string, double> gauges_ MHB_GUARDED_BY(mu_);
  std::vector<RoundRow> rounds_ MHB_GUARDED_BY(mu_);
  // Staged rows for the round in flight; folded and drained (or discarded)
  // by every EndRound, so this never grows past one round's cohort.
  std::vector<ClientRow> client_rows_ MHB_GUARDED_BY(mu_);
  std::function<void(const RoundRow&)> round_sink_ MHB_GUARDED_BY(mu_);
  std::function<void(std::vector<ClientRow>&&)> client_row_sink_
      MHB_GUARDED_BY(mu_);
};

}  // namespace mhbench::obs
