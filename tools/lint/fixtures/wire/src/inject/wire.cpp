// Seeded wire-safety violations: raw decodes of payload bytes, a
// hand-written CSV1 frame loop and a hand-rolled file replacement that
// must each be caught (this path matches the checker's wire-file set).
// The annotated site must NOT be reported.
#include <cstdint>
#include <cstring>
#include <string>

namespace fixture {

struct Header {
  std::uint32_t version;
  std::uint32_t body_len;
};

bool decode_header(const std::string& payload, Header* out) {
  if (payload.size() < sizeof(Header)) return false;
  // VIOLATION reinterpret_cast over payload bytes
  const Header* h = reinterpret_cast<const Header*>(payload.data());
  // VIOLATION raw memcpy decode
  std::memcpy(out, payload.data(), sizeof(Header));
  // VIOLATION raw memmove decode
  std::memmove(out, payload.data(), sizeof(Header));
  return h->version == 1;
}

bool annotated_decode(const std::string& payload, std::uint64_t* out) {
  if (payload.size() < sizeof(*out)) return false;
  // lint: allow(wire-safety): length checked on the line above; fixture
  std::memcpy(out, payload.data(), sizeof(*out));
  return true;
}

bool hand_rolled_frame_loop(std::string* rx, Frame* frame) {
  // VIOLATION CSV1 frames decoded outside serve::FrameConn
  return decode_frame(rx, frame) == FrameStatus::kOk;
}

bool hand_rolled_replace(const std::string& tmp, const std::string& path) {
  // VIOLATION truncating open outside util::write_file_atomic
  std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
  // VIOLATION tmp renamed into place outside util::write_file_atomic
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

}  // namespace fixture
