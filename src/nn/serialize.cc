#include "nn/serialize.h"

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>

namespace neurosketch {
namespace nn {

namespace {

constexpr uint32_t kMagic = 0x4e534b31;  // "NSK1"
constexpr uint32_t kVersion = 1;

void WriteU32(std::ostream* out, uint32_t v) {
  out->write(reinterpret_cast<const char*>(&v), sizeof(v));
}
void WriteU64(std::ostream* out, uint64_t v) {
  out->write(reinterpret_cast<const char*>(&v), sizeof(v));
}
bool ReadU32(std::istream* in, uint32_t* v) {
  in->read(reinterpret_cast<char*>(v), sizeof(*v));
  return in->good();
}
bool ReadU64(std::istream* in, uint64_t* v) {
  in->read(reinterpret_cast<char*>(v), sizeof(*v));
  return in->good();
}

void WriteHeader(const MlpConfig& cfg, std::ostream* out) {
  WriteU32(out, kMagic);
  WriteU32(out, kVersion);
  WriteU64(out, cfg.in_dim);
  WriteU64(out, cfg.out_dim);
  WriteU32(out, static_cast<uint32_t>(cfg.hidden_act));
  WriteU64(out, cfg.hidden.size());
  for (size_t h : cfg.hidden) WriteU64(out, h);
}

Result<MlpConfig> ReadHeader(std::istream* in) {
  uint32_t magic = 0, version = 0, act = 0;
  uint64_t in_dim = 0, out_dim = 0, n_hidden = 0;
  if (!ReadU32(in, &magic) || magic != kMagic) {
    return Status::InvalidArgument("bad magic in model stream");
  }
  if (!ReadU32(in, &version) || version != kVersion) {
    return Status::InvalidArgument("unsupported model version");
  }
  if (!ReadU64(in, &in_dim) || !ReadU64(in, &out_dim) || !ReadU32(in, &act) ||
      !ReadU64(in, &n_hidden)) {
    return Status::IOError("truncated model header");
  }
  if (act > static_cast<uint32_t>(Activation::kSigmoid)) {
    return Status::InvalidArgument("unknown activation id in model stream");
  }
  NS_RETURN_NOT_OK(
      CheckStreamHolds(in, n_hidden, sizeof(uint64_t), "hidden widths"));
  MlpConfig cfg;
  cfg.in_dim = in_dim;
  cfg.out_dim = out_dim;
  cfg.hidden_act = static_cast<Activation>(act);
  cfg.hidden.reserve(n_hidden);
  for (uint64_t i = 0; i < n_hidden; ++i) {
    uint64_t h = 0;
    if (!ReadU64(in, &h)) return Status::IOError("truncated hidden widths");
    cfg.hidden.push_back(h);
  }
  // The parameter block must fit in the stream before the loaders size
  // their buffers from these widths; a count that wraps is as hostile as
  // one that is too large.
  uint64_t params = 0, prev = in_dim;
  bool wrapped = false;
  auto add_layer = [&](uint64_t out) {
    uint64_t weights = 0;
    wrapped |= __builtin_mul_overflow(prev, out, &weights);
    wrapped |= __builtin_add_overflow(params, weights, &params);
    wrapped |= __builtin_add_overflow(params, out, &params);  // bias
    prev = out;
  };
  for (uint64_t h : cfg.hidden) add_layer(h);
  add_layer(out_dim);
  if (wrapped) return Status::IOError("parameter block length overflows");
  NS_RETURN_NOT_OK(
      CheckStreamHolds(in, params, sizeof(double), "parameter block"));
  return cfg;
}

}  // namespace

Status CheckStreamHolds(std::istream* in, uint64_t count, size_t elem_bytes,
                        const char* what) {
  const std::istream::pos_type here = in->tellg();
  if (here == std::istream::pos_type(-1)) return Status::OK();
  in->seekg(0, std::ios::end);
  const std::istream::pos_type end = in->tellg();
  in->clear();
  in->seekg(here);
  if (end == std::istream::pos_type(-1) || end < here) return Status::OK();
  const uint64_t left = static_cast<uint64_t>(end - here);
  if (count > left / elem_bytes) {
    return Status::IOError(std::string("truncated ") + what + ": length " +
                           std::to_string(count) + " exceeds the stream");
  }
  return Status::OK();
}

Status SaveMlp(const Mlp& model, std::ostream* out) {
  WriteHeader(model.config(), out);
  for (const auto& layer : model.layers()) {
    out->write(reinterpret_cast<const char*>(layer.weight().data()),
               static_cast<std::streamsize>(layer.weight().size() *
                                            sizeof(double)));
    out->write(reinterpret_cast<const char*>(layer.bias().data()),
               static_cast<std::streamsize>(layer.bias().size() *
                                            sizeof(double)));
  }
  if (!out->good()) return Status::IOError("stream write failed");
  return Status::OK();
}

Status SaveMlpFile(const Mlp& model, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IOError("cannot open " + path);
  return SaveMlp(model, &out);
}

Result<Mlp> LoadMlp(std::istream* in) {
  NS_ASSIGN_OR_RETURN(MlpConfig cfg, ReadHeader(in));
  Mlp model(cfg);
  for (auto& layer : model.layers()) {
    in->read(reinterpret_cast<char*>(layer.weight().data()),
             static_cast<std::streamsize>(layer.weight().size() *
                                          sizeof(double)));
    in->read(reinterpret_cast<char*>(layer.bias().data()),
             static_cast<std::streamsize>(layer.bias().size() *
                                          sizeof(double)));
    if (!in->good()) return Status::IOError("truncated parameter block");
  }
  return model;
}

Result<Mlp> LoadMlpFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);
  return LoadMlp(&in);
}

Status SaveCompiledMlp(const CompiledMlp& plan, std::ostream* out) {
  // The flat buffer is already laid out in serialization order (per layer:
  // weights then bias), so the whole parameter block is one write.
  WriteHeader(plan.config(), out);
  out->write(reinterpret_cast<const char*>(plan.params().data()),
             static_cast<std::streamsize>(plan.params().size() *
                                          sizeof(double)));
  if (!out->good()) return Status::IOError("stream write failed");
  return Status::OK();
}

Result<CompiledMlp> LoadCompiledMlp(std::istream* in) {
  NS_ASSIGN_OR_RETURN(MlpConfig cfg, ReadHeader(in));
  CompiledMlp plan = CompiledMlp::FromConfig(cfg);
  in->read(reinterpret_cast<char*>(plan.mutable_params().data()),
           static_cast<std::streamsize>(plan.num_params() * sizeof(double)));
  if (!in->good()) return Status::IOError("truncated parameter block");
  return plan;
}

size_t SerializedHeaderBytes(const MlpConfig& config) {
  // Mirrors WriteHeader: magic, version, in/out dims, activation, hidden
  // count, then one u64 per hidden width.
  return 2 * sizeof(uint32_t) + 2 * sizeof(uint64_t) + sizeof(uint32_t) +
         sizeof(uint64_t) + config.hidden.size() * sizeof(uint64_t);
}

size_t SerializedModelBytes(const CompiledMlp& plan) {
  return SerializedHeaderBytes(plan.config()) +
         plan.num_params() * sizeof(double);
}

}  // namespace nn
}  // namespace neurosketch
