/// Fuzzes the wire protocol's two untrusted layers: the stream framer
/// (DecodeFrame) and every typed payload decoder. The input is treated
/// first as a raw byte stream — frames are pulled off it exactly as
/// EmmServer::PumpConnection does, and each decoded frame's payload is
/// routed to the decoder its type selects — then the whole input is thrown
/// at each typed decoder directly, so payload parsers see inputs that the
/// framer would have rejected. Every Decode must return a Status, never
/// crash, over-read, or allocate proportionally to a hostile length field.
#include <cstdint>
#include <cstring>

#include "common/bytes.h"
#include "server/wire.h"

using rsse::Bytes;
using namespace rsse::server;

namespace {

void DecodeTyped(FrameType type, const Bytes& payload) {
  switch (type) {
    case FrameType::kSetupResp:
      (void)SetupResponse::Decode(payload);
      break;
    case FrameType::kSearchBatchReq:
      (void)SearchBatchRequest::Decode(payload);
      break;
    case FrameType::kSearchResult:
      (void)SearchResult::Decode(payload);
      break;
    case FrameType::kSearchDone:
      (void)SearchDone::Decode(payload);
      break;
    case FrameType::kUpdateReq:
      (void)UpdateRequest::Decode(payload);
      break;
    case FrameType::kUpdateResp:
      (void)UpdateResponse::Decode(payload);
      break;
    case FrameType::kStatsReq:
      break;  // empty payload by construction
    case FrameType::kStatsResp:
      (void)StatsResponse::Decode(payload);
      break;
    case FrameType::kError:
    case FrameType::kErrorDraining:
      (void)ErrorResponse::Decode(payload);
      break;
    case FrameType::kSetupStoreReq:
      (void)SetupStoreRequest::Decode(payload);
      break;
    case FrameType::kSearchKeywordReq:
      (void)SearchKeywordRequest::Decode(payload);
      break;
    case FrameType::kSearchPayload:
      (void)SearchPayloadResult::Decode(payload);
      break;
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  Bytes buf(data, data + size);

  // Stream path: pull frames until the buffer runs dry or turns malformed,
  // dispatching each payload to its typed decoder — the server's exact
  // consumption pattern for bytes off a socket.
  size_t offset = 0;
  Frame frame;
  std::string error;
  while (DecodeFrame(buf, offset, frame, &error) == FrameParse::kFrame) {
    DecodeTyped(frame.type, frame.payload);
  }

  // Direct path: every typed decoder sees the raw input, bypassing the
  // framer's version/type/length screening (type 1 is retired).
  for (uint8_t t = static_cast<uint8_t>(FrameType::kSetupResp);
       t <= static_cast<uint8_t>(FrameType::kErrorDraining); ++t) {
    DecodeTyped(static_cast<FrameType>(t), buf);
  }
  return 0;
}
