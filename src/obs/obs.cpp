#include "df3/obs/obs.hpp"

namespace df3::obs::detail {

Observability* g_current = nullptr;

}  // namespace df3::obs::detail
