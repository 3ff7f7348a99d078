// Byte-level edits of saved checkpoints, for tests that feed the loader a
// corrupt file.

#ifndef STWA_TESTS_CHECKPOINT_BYTES_H_
#define STWA_TESTS_CHECKPOINT_BYTES_H_

#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>

namespace stwa {

/// Flips bit `bit` of the first dimension of parameter `name` in the
/// checkpoint at `path`. A parameter record is the u64 name length, the
/// name, the u64 rank and then the i64 dimensions. Returns false when the
/// record is not found.
inline bool FlipFirstDimBit(const std::string& path, const std::string& name,
                            int bit) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  const std::string bytes((std::istreambuf_iterator<char>(f)),
                          std::istreambuf_iterator<char>());
  const uint64_t len = name.size();
  std::string record(sizeof(len), '\0');
  std::memcpy(record.data(), &len, sizeof(len));
  record += name;
  const size_t at = bytes.find(record);
  if (at == std::string::npos) return false;
  const size_t dim_at = at + record.size() + sizeof(uint64_t);
  int64_t dim = 0;
  std::memcpy(&dim, bytes.data() + dim_at, sizeof(dim));
  dim ^= int64_t{1} << bit;
  f.clear();
  f.seekp(static_cast<std::streamoff>(dim_at));
  f.write(reinterpret_cast<const char*>(&dim), sizeof(dim));
  return f.good();
}

}  // namespace stwa

#endif  // STWA_TESTS_CHECKPOINT_BYTES_H_
