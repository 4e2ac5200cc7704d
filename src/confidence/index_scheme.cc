#include "confidence/index_scheme.h"

#include "util/status.h"

namespace confsim {

const char *
toString(IndexScheme scheme)
{
    switch (scheme) {
      case IndexScheme::Pc: return "PC";
      case IndexScheme::Bhr: return "BHR";
      case IndexScheme::Gcir: return "GCIR";
      case IndexScheme::PcXorBhr: return "PCxorBHR";
      case IndexScheme::PcXorGcir: return "PCxorGCIR";
      case IndexScheme::BhrXorGcir: return "BHRxorGCIR";
      case IndexScheme::PcXorBhrXorGcir: return "PCxorBHRxorGCIR";
      case IndexScheme::PcConcatBhr: return "PCconcatBHR";
    }
    panic("unknown IndexScheme");
}

} // namespace confsim
