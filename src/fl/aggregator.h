// Coordinate-wise masked federated averaging.
//
// Clients hold different sub-tensors of the global parameters; the server
// averages each coordinate over exactly the clients that trained it
// (HeteroFL-style) and leaves untouched coordinates at their previous
// value.  This one primitive implements the aggregation of FedAvg, Fjord,
// SHeteroFL, FedRolex, DepthFL, InclusiveFL and FeDepth.
#pragma once

#include <cstdint>
#include <map>

#include "fl/param_store.h"

namespace mhbench::fl {

// One client's staged upload: the trained parameter values, the slices of
// the global tensors they cover, and the aggregation weight.  Extracted on
// the client's (possibly concurrent) thread; accumulated serially.
struct ClientUpdate {
  models::ParamMapping mapping;
  std::vector<Tensor> values;  // one per mapping entry, client-shaped
  double weight = 0.0;

  bool empty() const { return values.empty(); }
  // Parameters uploaded: the total element count of `values`.
  std::int64_t numel() const;
};

// Copies a trained model's parameters into a staged update.  Touches only
// `model`, so concurrent extraction across distinct models is safe.
ClientUpdate ExtractUpdate(nn::Module& model,
                           const models::ParamMapping& mapping, double weight);

class MaskedAverager {
 public:
  MaskedAverager() = default;

  // Adds one client's trained parameters.  `weight` is typically the
  // client's sample count.  Tensor shapes come from the reference store at
  // ApplyTo time; accumulation buffers are sized lazily from it.
  // NOT thread-safe: the accumulator is shared across clients.  Concurrent
  // callers must stage with ExtractUpdate and accumulate serially.
  void Accumulate(nn::Module& model, const models::ParamMapping& mapping,
                  double weight, const ParamStore& reference);

  // Same accumulation from a staged update.  Performs the identical
  // floating-point operations in the identical order as the Module
  // overload, so deferring accumulation to a serial merge phase leaves
  // results bit-identical.
  void Accumulate(const ClientUpdate& update, const ParamStore& reference);

  // Writes averaged coordinates into `store`; coordinates no client touched
  // keep their previous values.  Clears the accumulator.
  void ApplyTo(ParamStore& store);

  bool empty() const { return sum_.empty(); }

 private:
  std::map<std::string, Tensor> sum_;
  std::map<std::string, Tensor> weight_;
};

}  // namespace mhbench::fl
