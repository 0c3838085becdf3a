#include "service/transport.hpp"

#include "service/protocol.hpp"

namespace incprof::service {

void FrameBuffer::append(std::string_view bytes) {
  buffer_.append(bytes);
}

std::optional<std::string> FrameBuffer::next_frame() {
  if (buffered() < kFrameHeaderSize) return std::nullopt;
  const std::string_view view =
      std::string_view(buffer_).substr(pos_);
  // Throws on bad magic / oversize — a byte-stream that desynchronizes
  // is unrecoverable, so fail loudly at the first corrupt header. The
  // version is not checked here: a bad one is still one delimited
  // frame, which decode_frame rejects as a budgeted error.
  const std::size_t total = kFrameHeaderSize + frame_payload_length(view);
  if (view.size() < total) return std::nullopt;
  std::string frame(view.substr(0, total));
  pos_ += total;
  compact();
  return frame;
}

void FrameBuffer::compact() {
  // Reclaim consumed prefix once it dominates the buffer, keeping
  // amortized append/pop linear without shifting on every frame.
  if (pos_ > 4096 && pos_ * 2 >= buffer_.size()) {
    buffer_.erase(0, pos_);
    pos_ = 0;
  }
}

}  // namespace incprof::service
