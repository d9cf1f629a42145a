#include "storage/bitpacking.h"

namespace kbtim {

size_t BitPackedSize(size_t n, uint32_t bits) {
  return (n * bits + 7) / 8;
}

void BitPack(const uint32_t* values, size_t n, uint32_t bits,
             std::string* out) {
  if (bits == 0 || n == 0) return;
  const uint32_t mask =
      bits >= 32 ? ~uint32_t{0} : ((uint32_t{1} << bits) - 1);
  uint64_t buffer = 0;
  uint32_t filled = 0;
  for (size_t i = 0; i < n; ++i) {
    buffer |= static_cast<uint64_t>(values[i] & mask) << filled;
    filled += bits;
    while (filled >= 8) {
      out->push_back(static_cast<char>(buffer & 0xFF));
      buffer >>= 8;
      filled -= 8;
    }
  }
  if (filled > 0) out->push_back(static_cast<char>(buffer & 0xFF));
}

}  // namespace kbtim
