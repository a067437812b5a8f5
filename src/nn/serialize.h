// Binary serialization for trained models. A NeuroSketch is "released"
// instead of the data (paper Sec. 7), so models must round-trip exactly.
#ifndef NEUROSKETCH_NN_SERIALIZE_H_
#define NEUROSKETCH_NN_SERIALIZE_H_

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>

#include "nn/inference_plan.h"
#include "nn/mlp.h"
#include "util/status.h"

namespace neurosketch {
namespace nn {

/// \brief Write the architecture and all parameters to a stream.
/// Format: magic, version, in/out dims, hidden widths, activation,
/// raw little-endian doubles.
Status SaveMlp(const Mlp& model, std::ostream* out);
Status SaveMlpFile(const Mlp& model, const std::string& path);

/// \brief Reconstruct a model saved with SaveMlp. Parameters round-trip
/// bit-exactly.
Result<Mlp> LoadMlp(std::istream* in);
Result<Mlp> LoadMlpFile(const std::string& path);

/// \brief Compiled-plan serialization. Byte-identical to SaveMlp/LoadMlp
/// (a plan's flat buffer *is* the serialized parameter block), so plans
/// and Mlps are interchangeable on disk; the plan path streams all
/// parameters with a single contiguous read/write.
Status SaveCompiledMlp(const CompiledMlp& plan, std::ostream* out);
Result<CompiledMlp> LoadCompiledMlp(std::istream* in);

/// \brief Guard for loaders reading a length field: IOError naming `what`
/// when the stream provably holds fewer than count * elem_bytes bytes past
/// its read position, so a hostile count fails before anything is
/// allocated. Seekable streams (ifstream, istringstream) report the bytes
/// left; for a stream that cannot, this returns OK and the subsequent read
/// reports the truncation. The read position is left unchanged.
Status CheckStreamHolds(std::istream* in, uint64_t count, size_t elem_bytes,
                        const char* what);

/// \brief Exact number of bytes SaveMlp/SaveCompiledMlp writes for a model
/// with this architecture, header included. Lets size accounting
/// (NeuroSketch::SizeBytes) agree byte-for-byte with the save path.
size_t SerializedHeaderBytes(const MlpConfig& config);
size_t SerializedModelBytes(const CompiledMlp& plan);

}  // namespace nn
}  // namespace neurosketch

#endif  // NEUROSKETCH_NN_SERIALIZE_H_
