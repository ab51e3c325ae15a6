#include "core/workspace.hpp"

#include <algorithm>
#include <cassert>
#include <limits>

namespace semilocal {

std::span<const Symbol> Workspace::reversed(SequenceView a) {
  const std::span<Symbol> out = symbols_.lease(a.size());
  std::reverse_copy(a.begin(), a.end(), out.begin());
  return out;
}

Workspace::SymbolCodes Workspace::codes(SequenceView a, SequenceView b) {
  assert(a.size() + b.size() <= (std::size_t{1} << 16));
  const std::span<std::uint16_t> ca = u16_.lease(a.size());
  const std::span<std::uint16_t> cb = u16_.lease(b.size());
  Symbol lo = std::numeric_limits<Symbol>::max();
  Symbol hi = std::numeric_limits<Symbol>::min();
  for (const SequenceView side : {a, b}) {
    for (const Symbol s : side) {
      lo = std::min(lo, s);
      hi = std::max(hi, s);
    }
  }
  if (std::int64_t{hi} - lo < (std::int64_t{1} << 16)) {
    // Offset codes; the unsigned subtraction cannot wrap past hi - lo.
    const auto code = [lo](Symbol s) {
      return static_cast<std::uint16_t>(static_cast<std::uint32_t>(s) -
                                        static_cast<std::uint32_t>(lo));
    };
    std::transform(a.rbegin(), a.rend(), ca.begin(), code);
    std::transform(b.begin(), b.end(), cb.begin(), code);
  } else {
    // Rank codes: at most a.size() + b.size() <= 2^16 distinct symbols.
    const std::span<Symbol> sorted = symbols_.lease(a.size() + b.size());
    std::copy(b.begin(), b.end(), std::copy(a.begin(), a.end(), sorted.begin()));
    std::sort(sorted.begin(), sorted.end());
    const auto distinct_end = std::unique(sorted.begin(), sorted.end());
    const auto code = [&](Symbol s) {
      return static_cast<std::uint16_t>(
          std::lower_bound(sorted.begin(), distinct_end, s) - sorted.begin());
    };
    std::transform(a.rbegin(), a.rend(), ca.begin(), code);
    std::transform(b.begin(), b.end(), cb.begin(), code);
  }
  return {ca, cb};
}

void Workspace::reset() {
  symbols_.reset();
  u16_.reset();
  u32_.reset();
}

std::size_t Workspace::growth_events() const {
  return symbols_.growths() + u16_.growths() + u32_.growths() + ant_.growth_events();
}

Workspace& tls_workspace() {
  static thread_local Workspace ws;
  return ws;
}

}  // namespace semilocal
