#include "fl/aggregator.h"

#include "core/error.h"
#include "obs/profile.h"
#include "tensor/ops.h"

namespace mhbench::fl {

std::int64_t ClientUpdate::numel() const {
  std::int64_t n = 0;
  for (const Tensor& v : values) n += static_cast<std::int64_t>(v.numel());
  return n;
}

ClientUpdate ExtractUpdate(nn::Module& model,
                           const models::ParamMapping& mapping,
                           double weight) {
  MHB_CHECK_GT(weight, 0.0);
  obs::ProfileScope profile_scope("extract_update");
  std::vector<nn::NamedParam> params;
  model.CollectParams("", params);
  MHB_CHECK_EQ(params.size(), mapping.size());
  ClientUpdate update;
  update.mapping = mapping;
  update.weight = weight;
  update.values.reserve(params.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    MHB_CHECK_EQ(params[i].name, mapping[i].name) << "mapping order mismatch";
    update.values.push_back(params[i].param->value);
  }
  return update;
}

void MaskedAverager::Accumulate(nn::Module& model,
                                const models::ParamMapping& mapping,
                                double weight, const ParamStore& reference) {
  Accumulate(ExtractUpdate(model, mapping, weight), reference);
}

void MaskedAverager::Accumulate(const ClientUpdate& update,
                                const ParamStore& reference) {
  MHB_CHECK_GT(update.weight, 0.0);
  obs::ProfileScope profile_scope("aggregate_accumulate");
  MHB_CHECK_EQ(update.values.size(), update.mapping.size());
  for (std::size_t i = 0; i < update.values.size(); ++i) {
    const auto& slice = update.mapping[i];
    const Tensor& global_ref = reference.Get(slice.name);
    auto [sit, inserted] = sum_.try_emplace(slice.name, global_ref.shape());
    if (inserted) weight_.emplace(slice.name, Tensor(global_ref.shape()));

    // Fused: sum[sel] += w * values and weight[sel] += w, without
    // materializing a weighted copy or a constant-filled tensor per slice.
    const auto w = static_cast<Scalar>(update.weight);
    ops::ScatterAxpyDims(sit->second, w, update.values[i], slice.index);
    ops::ScatterAddScalarDims(weight_.at(slice.name), w, slice.index);
  }
}

void MaskedAverager::ApplyTo(ParamStore& store) {
  MHB_CHECK(!empty()) << "no accumulated updates";
  obs::ProfileScope profile_scope("aggregate_apply");
  for (auto& [name, acc] : sum_) {
    Tensor& target = store.GetMutable(name);
    const Tensor& w = weight_.at(name);
    MHB_CHECK(acc.shape() == target.shape());
    for (std::size_t i = 0; i < acc.numel(); ++i) {
      if (w[i] > 0) target[i] = acc[i] / w[i];
    }
  }
  sum_.clear();
  weight_.clear();
}

}  // namespace mhbench::fl
