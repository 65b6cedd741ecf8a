#include "soc/precision.hh"

#include "sim/logging.hh"

namespace jetsim::soc {

const char *
name(Precision p)
{
    switch (p) {
      case Precision::Int8: return "int8";
      case Precision::Fp16: return "fp16";
      case Precision::Tf32: return "tf32";
      case Precision::Fp32: return "fp32";
    }
    return "?";
}

Precision
precisionFromName(const std::string &s)
{
    if (const auto p = findPrecision(s))
        return *p;
    sim::fatal("unknown precision '%s'", s.c_str());
}

std::optional<Precision>
findPrecision(std::string_view s)
{
    for (Precision p : kAllPrecisions)
        if (s == name(p))
            return p;
    return std::nullopt;
}

unsigned
storageBytes(Precision p)
{
    switch (p) {
      case Precision::Int8: return 1;
      case Precision::Fp16: return 2;
      case Precision::Tf32: return 4;
      case Precision::Fp32: return 4;
    }
    return 4;
}

} // namespace jetsim::soc
