// Serial-number arithmetic for ARQ sequence numbers (RFC 1982 style).
//
// The go-back-N core (transport/gbn.hpp), and so both of its adapters —
// the simulator's ArqChannel and the socket ReliableChannel — numbers
// frames with unsigned 64-bit sequence numbers compared *modulo 2^64*:
// a - b interpreted as a signed distance.  At protocol rates a 64-bit
// counter never wraps in practice, but the core must not depend on that
// (tests/gbn_test.cpp and the adapters' wraparound tests start channels
// a few frames below 2^64), and serial comparisons cost the same as
// plain ones.
#pragma once

#include <cstdint>

namespace bneck::transport {

/// a < b in serial-number order (true when a is at most 2^63-1 behind b).
[[nodiscard]] constexpr bool seq_lt(std::uint64_t a, std::uint64_t b) {
  return static_cast<std::int64_t>(a - b) < 0;
}

[[nodiscard]] constexpr bool seq_le(std::uint64_t a, std::uint64_t b) {
  return static_cast<std::int64_t>(a - b) <= 0;
}

/// Signed distance from b to a (a - b mod 2^64, as int64).
[[nodiscard]] constexpr std::int64_t seq_distance(std::uint64_t a,
                                                  std::uint64_t b) {
  return static_cast<std::int64_t>(a - b);
}

}  // namespace bneck::transport
