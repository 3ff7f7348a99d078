#include "simd/lowp.h"

#include "common/check.h"

namespace stwa {
namespace simd {

const char* PrecisionName(Precision p) {
  switch (p) {
    case Precision::kFp32:
      return "fp32";
    case Precision::kBf16:
      return "bf16";
    case Precision::kInt8:
      return "int8";
  }
  STWA_FAIL("unknown Precision value ", static_cast<int>(p));
}

Precision ParsePrecision(const std::string& name) {
  if (name == "fp32") return Precision::kFp32;
  if (name == "bf16") return Precision::kBf16;
  if (name == "int8") return Precision::kInt8;
  throw Error("unknown precision \"" + name +
              "\"; expected fp32, bf16 or int8");
}

}  // namespace simd
}  // namespace stwa
