#include "transport/reliable.hpp"

#include <algorithm>

#include "wire/codec.hpp"

namespace bneck::transport {
namespace {

GoBackNConfig core_config(const ReliableConfig& cfg) {
  return {.window = cfg.window, .rto_initial = cfg.rto_initial,
          .rto_max = std::max(cfg.rto_max, cfg.rto_initial),
          .backoff = cfg.backoff, .jitter = cfg.jitter,
          .max_retries = cfg.max_retries, .seed = cfg.seed,
          .first_seq = cfg.first_seq};
}

}  // namespace

ReliableChannel::ReliableChannel(const ReliableConfig& cfg, RawSend raw)
    : raw_(std::move(raw)), gbn_(core_config(cfg)) {}

bool ReliableChannel::send(std::span<const std::uint8_t> packet_frame,
                           TimeNs now) {
  Frame frame;
  wire::encode_data(gbn_.next_seq(), packet_frame, frame);
  return gbn_.send(std::move(frame), now, emitter(now));
}

void ReliableChannel::on_ack(std::uint64_t cumulative, TimeNs now) {
  gbn_.on_ack(cumulative, now, emitter(now));
}

std::size_t ReliableChannel::poll(TimeNs now) {
  return gbn_.on_timer(now, emitter(now));
}

}  // namespace bneck::transport
