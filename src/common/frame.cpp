#include "common/frame.hpp"

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <stdexcept>

#include <sys/socket.h>
#include <unistd.h>

namespace eftvqa {

namespace {

/** write()/send() the whole buffer, riding out EINTR and short
 *  writes. Returns false when the peer is gone. */
bool
writeAll(int fd, const char *data, size_t n)
{
    size_t sent = 0;
    while (sent < n) {
        // MSG_NOSIGNAL: a dead peer must surface as EPIPE, not kill
        // the process. Non-socket fds (ENOTSOCK) fall back to write().
        ssize_t w = ::send(fd, data + sent, n - sent, MSG_NOSIGNAL);
        if (w < 0 && errno == ENOTSOCK)
            w = ::write(fd, data + sent, n - sent);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        sent += static_cast<size_t>(w);
    }
    return true;
}

/** read() exactly @p n bytes. Returns bytes read (short on EOF). */
size_t
readAll(int fd, char *data, size_t n)
{
    size_t got = 0;
    while (got < n) {
        const ssize_t r = ::read(fd, data + got, n - got);
        if (r < 0) {
            if (errno == EINTR)
                continue;
            return got; // treat hard errors as end-of-stream
        }
        if (r == 0)
            return got;
        got += static_cast<size_t>(r);
    }
    return got;
}

uint32_t
decodeLength(const char *header)
{
    uint32_t length = 0;
    for (int i = 3; i >= 0; --i)
        length = (length << 8) |
                 static_cast<unsigned char>(header[i]);
    return length;
}

} // namespace

std::string
encodeFrame(std::string_view payload)
{
    if (payload.size() > kMaxFrameBytes)
        throw std::invalid_argument("writeFrame: payload of " +
                                    std::to_string(payload.size()) +
                                    " bytes exceeds the frame cap");
    std::string frame(4, '\0');
    const uint32_t length = static_cast<uint32_t>(payload.size());
    for (int i = 0; i < 4; ++i)
        frame[i] = static_cast<char>((length >> (8 * i)) & 0xFF);
    frame.append(payload);
    return frame;
}

bool
writeFrame(int fd, std::string_view payload)
{
    const std::string frame = encodeFrame(payload);
    return writeAll(fd, frame.data(), frame.size());
}

bool
readFrame(int fd, std::string &payload)
{
    char header[4];
    if (readAll(fd, header, sizeof(header)) != sizeof(header))
        return false;
    const uint32_t length = decodeLength(header);
    if (length > kMaxFrameBytes)
        throw std::runtime_error(
            "readFrame: corrupt length prefix (" +
            std::to_string(length) + " bytes)");
    payload.resize(length);
    return length == 0 ||
           readAll(fd, payload.data(), length) == length;
}

bool
FrameBuffer::next(std::string &payload)
{
    if (buf_.size() < 4)
        return false;
    const uint32_t length = decodeLength(buf_.data());
    if (length > kMaxFrameBytes)
        throw std::runtime_error(
            "FrameBuffer: corrupt length prefix (" +
            std::to_string(length) + " bytes)");
    if (buf_.size() < 4 + static_cast<size_t>(length))
        return false;
    payload.assign(buf_, 4, length);
    buf_.erase(0, 4 + static_cast<size_t>(length));
    return true;
}

} // namespace eftvqa
