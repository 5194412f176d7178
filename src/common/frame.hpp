/**
 * @file
 * Length-prefixed message frames over file descriptors.
 *
 * The wire shape shared by the ProcessPool supervisor↔worker channel
 * and (by design) the future vqad daemon socket: each frame is a
 * 4-byte little-endian payload length followed by the payload bytes —
 * here always a flat one-line JSON object built with
 * common/json.hpp's writer and parsed with vqa/storefmt.hpp's flat
 * parser. This header only moves bytes; it knows nothing about JSON.
 *
 * writeFrame()/readFrame() are the blocking endpoints (worker side);
 * FrameBuffer reassembles frames from the non-blocking reads a
 * poll-driven supervisor makes.
 */

#ifndef EFTVQA_COMMON_FRAME_HPP
#define EFTVQA_COMMON_FRAME_HPP

#include <cstddef>
#include <string>
#include <string_view>

namespace eftvqa {

/** Sanity cap on a frame payload; a longer length prefix means the
 *  stream is corrupt, not that the message is big. */
constexpr size_t kMaxFrameBytes = size_t{64} << 20;

/**
 * The wire bytes of one frame: the length prefix, then @p payload.
 * Throws std::invalid_argument on an oversized payload.
 */
std::string encodeFrame(std::string_view payload);

/**
 * Write one frame to @p fd, blocking until it is fully sent. Returns
 * false when the peer is gone (EPIPE/ECONNRESET — for a worker this
 * means the supervisor died and the right response is to exit).
 * Throws std::invalid_argument on an oversized payload. Socket fds
 * are written with MSG_NOSIGNAL so a vanished peer cannot SIGPIPE the
 * caller.
 */
bool writeFrame(int fd, std::string_view payload);

/**
 * Read one frame from @p fd, blocking until it is complete. Returns
 * false on end-of-stream (a clean close before a header, or a peer
 * that died mid-frame). Throws std::runtime_error on a corrupt length
 * prefix.
 */
bool readFrame(int fd, std::string &payload);

/**
 * Incremental frame reassembly for non-blocking reads: append()
 * whatever bytes arrived, then drain complete frames with next().
 */
class FrameBuffer
{
  public:
    void append(const char *data, size_t n) { buf_.append(data, n); }

    /** Extract the next complete frame into @p payload. Returns false
     *  when no complete frame is buffered yet; throws
     *  std::runtime_error on a corrupt length prefix. */
    bool next(std::string &payload);

    /** Buffered bytes not yet consumed. */
    size_t pending() const { return buf_.size(); }

  private:
    std::string buf_;
};

} // namespace eftvqa

#endif // EFTVQA_COMMON_FRAME_HPP
