// Shared base for weight-sharing MHFL algorithms (FedAvg, Fjord, SHeteroFL,
// FedRolex, DepthFL, InclusiveFL, FeDepth).
//
// These algorithms differ only in (a) which sub-model a client receives
// each round (ClientSpec), (b) how the client trains it (TrainClientModel),
// and (c) small server-side post-processing hooks.  Everything else —
// dispatch, masked aggregation, evaluation — lives here.
#pragma once

#include <memory>
#include <vector>

#include "core/mutex.h"
#include "fl/aggregator.h"
#include "fl/engine.h"
#include "fl/server.h"

namespace mhbench::algorithms {

class WeightSharingAlgorithm : public fl::MhflAlgorithm {
 public:
  WeightSharingAlgorithm(models::FamilyPtr family, std::uint64_t seed);

  void Setup(const fl::FlContext& ctx, Rng& rng) override;
  void BeginRound(int round, const std::vector<int>& participants) override;
  // Trains the client's sub-model and stages the upload into the client's
  // private buffer; safe to run concurrently for distinct participants.
  void RunClient(int client_id, int round, Rng& rng) override;
  // Merges staged uploads in participant order (bit-identical to eager
  // serial accumulation), applies the masked average, then PostAggregate.
  void FinishRound(int round, Rng& rng) override;
  // Groups clients by EvalSpec and opens the stability-eval memo (see
  // ClientLogits).
  void PrepareEvaluation() override;
  Tensor GlobalLogits(const Tensor& x) override;
  // After PrepareEvaluation, clients with equal EvalSpec share one forward
  // per distinct input batch: the first caller computes it under its
  // group's lock, the rest get a copy of the same logits.  Before
  // PrepareEvaluation, or after BeginRound / FinishRound / LoadState, every
  // call computes directly.
  Tensor ClientLogits(int client_id, const Tensor& x) override;

  // Checkpoint hooks: the persistent state of every weight-sharing
  // algorithm at a round barrier is the global store plus the last trained
  // round (EvalSpec / local LR lookups); subclasses with extra server
  // state add it through {Save,Load}ExtraState.
  void SaveState(fl::SnapshotWriter& writer) const override;
  void LoadState(fl::SnapshotReader& reader) override;

 protected:
  // Appends / restores subclass state after the shared fields; the default
  // is stateless.  Reads must mirror writes exactly (the engine calls
  // ExpectSectionEnd after LoadState).
  virtual void SaveExtraState(fl::SnapshotWriter& writer) const;
  virtual void LoadExtraState(fl::SnapshotReader& reader);

  // The sub-model this client trains in this round.
  virtual models::BuildSpec ClientSpec(int client_id, int round,
                                       Rng& rng) = 0;
  // The model evaluated for the global-accuracy metric.  Defaults to the
  // full model; algorithms whose largest trained sub-model is smaller
  // (e.g. under memory limits no client holds ratio 1.0) override this to
  // the maximum trained capacity, matching how HeteroFL-style systems
  // report the global model.
  virtual models::BuildSpec GlobalEvalSpec();
  // The sub-model used when evaluating the client's personalized accuracy;
  // defaults to ClientSpec at the last completed round with a fixed stream.
  virtual models::BuildSpec EvalSpec(int client_id);
  // Local training; default is plain supervised SGD on the deepest head.
  // Returns the final training loss.
  virtual double TrainClientModel(models::BuiltModel& built, int client_id,
                                  const data::Dataset& shard, Rng& rng);
  // Evaluate the global model with the ensemble of heads (DepthFL).
  virtual bool UseEnsembleEval() const { return false; }
  // Server-side hook after the masked average is applied.
  virtual void PostAggregate(int round, Rng& rng);

  double ClientCapacity(int client_id) const;
  // Largest capacity over all clients (available after Setup).
  double MaxCapacity() const;

 public:
  // Ablation knobs ---------------------------------------------------------
  // Static-batch-norm evaluation (default on).  With it off, evaluation
  // uses the aggregated running statistics, which are inconsistent across
  // different-width sub-networks; bench_ablation quantifies the gap.
  void set_sbn_eval(bool v) {
    sbn_eval_ = v;
    DropEvalMemo();
  }
  // Weight client updates by their sample count (default) or uniformly.
  enum class AggregationWeighting { kDataSize, kUniform };
  void set_aggregation_weighting(AggregationWeighting w) { weighting_ = w; }

 protected:
  // Staging slot for `client_id` in the current round, fixed by BeginRound.
  std::size_t SlotOf(int client_id) const;

  const fl::FlContext* ctx_ = nullptr;
  models::FamilyPtr family_;
  std::unique_ptr<fl::GlobalModel> global_;
  fl::MaskedAverager averager_;
  std::uint64_t seed_;
  int last_round_ = 0;
  bool sbn_eval_ = true;
  AggregationWeighting weighting_ = AggregationWeighting::kDataSize;
  // Current round's participants (dispatch order) and their staged uploads;
  // RunClient writes only its own slot.
  std::vector<int> round_participants_;
  std::vector<fl::ClientUpdate> staged_;
  std::vector<std::size_t> slot_of_client_;  // client id -> staging slot
  // Observability counter ids, pre-registered serially in BeginRound so the
  // concurrent RunClient only touches per-thread sinks (0 = unregistered).
  std::size_t obs_upload_params_id_ = 0;
  bool obs_ids_ready_ = false;

 private:
  // Stability-eval memo (DESIGN.md §5b).  One group per distinct EvalSpec;
  // each entry holds the logits of one input batch.  The group table is
  // built and dropped only in serial calls; entries are filled under the
  // group's lock, so each (group, batch) is computed exactly once.
  struct EvalMemoEntry {
    kernels::EvalPrecision precision = kernels::EvalPrecision::kF32;
    Tensor input;
    Tensor logits;
  };
  struct EvalGroup {
    models::BuildSpec spec;
    core::Mutex mu;
    std::vector<EvalMemoEntry> entries MHB_GUARDED_BY(mu);
  };
  Tensor ComputeClientLogits(const models::BuildSpec& spec, const Tensor& x);
  // Closes the memo; called wherever the global store or EvalSpec may change.
  void DropEvalMemo();
  std::vector<std::unique_ptr<EvalGroup>> eval_groups_;
  std::vector<std::size_t> eval_group_of_client_;  // empty: memo closed
};

}  // namespace mhbench::algorithms
