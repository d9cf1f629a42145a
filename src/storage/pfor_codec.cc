#include "storage/pfor_codec.h"

#include <algorithm>
#include <cstring>

#include "common/math_util.h"
#include "storage/bitpacking.h"
#include "storage/decode_kernels.h"
#include "storage/varint.h"

namespace kbtim {

void RawCodec::Encode(std::span<const uint32_t> values,
                      std::string* out) const {
  PutVarint64(out, values.size());
  const size_t old = out->size();
  out->resize(old + values.size() * sizeof(uint32_t));
  if (!values.empty()) {
    std::memcpy(out->data() + old, values.data(),
                values.size() * sizeof(uint32_t));
  }
}

Status RawCodec::Decode(std::string_view data,
                        std::vector<uint32_t>* out) const {
  out->clear();
  uint64_t count = 0;
  const char* p = GetVarint64(data.data(), data.data() + data.size(),
                              &count);
  if (p == nullptr) return Status::Corruption("raw codec: bad count");
  const size_t avail = static_cast<size_t>(data.data() + data.size() - p);
  if (avail < count * sizeof(uint32_t)) {
    return Status::Corruption("raw codec: truncated payload");
  }
  out->resize(count);
  if (count > 0) std::memcpy(out->data(), p, count * sizeof(uint32_t));
  return Status::OK();
}

void VarintCodec::Encode(std::span<const uint32_t> values,
                         std::string* out) const {
  PutVarint64(out, values.size());
  for (uint32_t v : values) PutVarint32(out, v);
}

Status VarintCodec::Decode(std::string_view data,
                           std::vector<uint32_t>* out) const {
  out->clear();
  const char* p = data.data();
  const char* limit = data.data() + data.size();
  uint64_t count = 0;
  p = GetVarint64(p, limit, &count);
  if (p == nullptr) return Status::Corruption("varint codec: bad count");
  out->reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    uint32_t v = 0;
    p = GetVarint32(p, limit, &v);
    if (p == nullptr) return Status::Corruption("varint codec: truncated");
    out->push_back(v);
  }
  return Status::OK();
}

namespace {

// Chooses the bit width minimizing packed size + exception cost for one
// block. Exceptions cost ~1 byte position + varint overflow.
uint32_t ChooseWidth(std::span<const uint32_t> block) {
  uint32_t width_count[33] = {0};
  for (uint32_t v : block) ++width_count[BitWidth(v)];
  uint32_t best_bits = 32;
  size_t best_cost = BitPackedSize(block.size(), 32);
  // Values wider than b bits, kept as a running suffix sum over b.
  size_t exceptions = block.size() - width_count[0];
  for (uint32_t b = 0; b <= 32; ++b) {
    // Rough exception cost: 1 byte position + 2 bytes overflow varint.
    const size_t cost = BitPackedSize(block.size(), b) + exceptions * 3;
    if (cost < best_cost) {
      best_cost = cost;
      best_bits = b;
    }
    if (b < 32) exceptions -= width_count[b + 1];
  }
  return best_bits;
}

}  // namespace

void PforCodec::Encode(std::span<const uint32_t> values,
                       std::string* out) const {
  PutVarint64(out, values.size());
  for (size_t begin = 0; begin < values.size(); begin += kBlockSize) {
    const size_t len = std::min(kBlockSize, values.size() - begin);
    const auto block = values.subspan(begin, len);
    const uint32_t bits = ChooseWidth(block);
    out->push_back(static_cast<char>(bits));
    BitPack(block.data(), len, bits, out);
    // Exceptions: indices whose value needs more than `bits` bits.
    std::string exceptions;
    uint32_t num_exceptions = 0;
    for (size_t i = 0; i < len; ++i) {
      if (BitWidth(block[i]) > bits) {
        PutVarint32(&exceptions, static_cast<uint32_t>(i));
        PutVarint32(&exceptions,
                    bits >= 32 ? 0 : block[i] >> bits);
        ++num_exceptions;
      }
    }
    PutVarint32(out, num_exceptions);
    out->append(exceptions);
  }
  if (values.empty()) return;
}

Status PforCodec::Decode(std::string_view data,
                         std::vector<uint32_t>* out) const {
  out->clear();
  const char* p = data.data();
  const char* limit = data.data() + data.size();
  uint64_t count = 0;
  p = GetVarint64(p, limit, &count);
  if (p == nullptr) return Status::Corruption("pfor: bad count");
  out->resize(count);
  size_t produced = 0;
  while (produced < count) {
    const size_t len = std::min<uint64_t>(kBlockSize, count - produced);
    if (p >= limit) return Status::Corruption("pfor: truncated block");
    const auto bits = static_cast<uint8_t>(*p++);
    if (bits > 32) return Status::Corruption("pfor: bad bit width");
    const size_t used = BitUnpack(
        p, static_cast<size_t>(limit - p), len, bits, out->data() + produced);
    if (bits != 0 && used == 0) {
      return Status::Corruption("pfor: truncated packed payload");
    }
    p += used;
    uint32_t num_exceptions = 0;
    p = GetVarint32(p, limit, &num_exceptions);
    if (p == nullptr) return Status::Corruption("pfor: bad exception count");
    for (uint32_t e = 0; e < num_exceptions; ++e) {
      uint32_t pos = 0, overflow = 0;
      p = GetVarint32(p, limit, &pos);
      if (p == nullptr) return Status::Corruption("pfor: bad exception pos");
      p = GetVarint32(p, limit, &overflow);
      if (p == nullptr) return Status::Corruption("pfor: bad exception val");
      if (pos >= len) return Status::Corruption("pfor: exception pos range");
      (*out)[produced + pos] |= overflow << bits;
    }
    produced += len;
  }
  return Status::OK();
}

void GroupVarintCodec::Encode(std::span<const uint32_t> values,
                              std::string* out) const {
  PutVarint64(out, values.size());
  GroupVarintEncode(values, out);
}

Status GroupVarintCodec::Decode(std::string_view data,
                                std::vector<uint32_t>* out) const {
  out->clear();
  const char* limit = data.data() + data.size();
  uint64_t count = 0;
  const char* p = GetVarint64(data.data(), limit, &count);
  if (p == nullptr) return Status::Corruption("gvarint codec: bad count");
  // Each value consumes at least one payload byte and each group of 4 one
  // control byte, so corrupt huge counts fail before allocating.
  const auto avail = static_cast<uint64_t>(limit - p);
  if (count > avail * 4) {
    return Status::Corruption("gvarint codec: count exceeds payload");
  }
  out->resize(count);
  if (GroupVarintDecode(p, limit, count, out->data()) == nullptr) {
    return Status::Corruption("gvarint codec: truncated");
  }
  return Status::OK();
}

std::unique_ptr<IntCodec> MakeCodec(CodecKind kind) {
  switch (kind) {
    case CodecKind::kRaw:
      return std::make_unique<RawCodec>();
    case CodecKind::kVarint:
      return std::make_unique<VarintCodec>();
    case CodecKind::kPfor:
      return std::make_unique<PforCodec>();
    case CodecKind::kGroupVarint:
      return std::make_unique<GroupVarintCodec>();
  }
  return std::make_unique<RawCodec>();
}

void DeltaEncode(std::vector<uint32_t>* values) {
  for (size_t i = values->size(); i > 1; --i) {
    (*values)[i - 1] -= (*values)[i - 2];
  }
}

void DeltaDecode(std::vector<uint32_t>* values) {
  for (size_t i = 1; i < values->size(); ++i) {
    (*values)[i] += (*values)[i - 1];
  }
}

}  // namespace kbtim
