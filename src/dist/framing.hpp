/**
 * @file
 * Length-prefixed message framing for the dist wire protocol.
 *
 * Wire layout of one frame:
 *
 *     [u32 length][u8 type][u8 codec][body ...]
 *
 * `length` counts the type byte, the codec byte, and the body (so it
 * is always >= 2) and is little-endian like every other quantity on
 * the wire (common/bytes.hpp). Frames above kMaxFrameBytes are
 * rejected before any allocation, so a garbage length prefix cannot
 * OOM the process; lengths 0 and 1 are equally malformed (no room for
 * the fixed header bytes).
 *
 * `codec` says how the body encodes the payload: kCodecNone is the
 * payload verbatim; kCodecLz4 is [u64 rawSize][LZ4 block] (the
 * from-scratch codec in src/compress/). Compression is negotiated in
 * the Hello/HelloAck handshake and applied only to frames above
 * kFrameCompressMinBytes that actually shrink — JobAssigns stay raw,
 * large JobResult/stats-delta/PlanResults payloads compress. The
 * parser decompresses transparently: consumers always see the raw
 * payload, plus the wire codec tag for accounting.
 *
 * FrameParser is push-style: feed it raw bytes as they arrive and pop
 * complete frames. The master runs one parser per worker connection
 * inside its poll loop; the worker wraps the same parser in a blocking
 * read helper (worker.cpp). Malformed input (bad length, unknown
 * codec byte, corrupt compressed body, a raw size above 255 times the
 * packed size, which no LZ4 block reaches) throws FramingError — the
 * connection is then dropped, never "resynchronized".
 */
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "common/bytes.hpp"

namespace codecrunch::dist {

/** Malformed frame (bad length prefix); drop the connection. */
class FramingError : public DecodeError
{
  public:
    using DecodeError::DecodeError;
};

/** Upper bound on one frame; a full plan's results stay well below. */
inline constexpr std::uint32_t kMaxFrameBytes = 256u * 1024u * 1024u;

/** Body codec tags (one byte on the wire). */
inline constexpr std::uint8_t kCodecNone = 0;
inline constexpr std::uint8_t kCodecLz4 = 1;

/** Payloads below this never compress (header overhead dominates). */
inline constexpr std::size_t kFrameCompressMinBytes = 4 * 1024;

/** One decoded frame: type tag, payload bytes, and the wire codec. */
struct Frame {
    std::uint8_t type = 0;
    std::string payload;
    /** Codec the frame traveled with (payload is already decoded). */
    std::uint8_t codec = kCodecNone;
    /** Body bytes as they traveled (compressed size for kCodecLz4);
     *  lets link observability compare wire vs raw volume. */
    std::uint32_t wireBody = 0;
};

/** Serialize one frame (header + type + codec + payload), raw body. */
inline std::string
encodeFrame(std::uint8_t type, std::string_view payload)
{
    if (payload.size() >= kMaxFrameBytes - 1)
        throw FramingError("frame payload exceeds kMaxFrameBytes");
    ByteWriter writer;
    writer.u32(static_cast<std::uint32_t>(payload.size() + 2));
    writer.u8(type);
    writer.u8(kCodecNone);
    writer.raw(payload);
    return writer.take();
}

/**
 * Serialize one frame, LZ4-compressing the body when the payload is at
 * least kFrameCompressMinBytes AND compression actually shrinks it;
 * falls back to a raw frame otherwise. Call only after the peer
 * negotiated kCodecLz4 in the handshake.
 */
std::string encodeFrameLz4(std::uint8_t type,
                           std::string_view payload);

/** Decode a kCodecLz4 body back to the raw payload (framing.cpp). */
std::string decompressFrameBody(std::string_view body);

/**
 * Incremental frame reassembler. feed() buffers bytes; next() pops the
 * oldest complete frame, if any.
 */
class FrameParser
{
  public:
    void
    feed(std::string_view bytes)
    {
        // Compact the consumed prefix only once it dominates the
        // buffer: erasing it per frame would make draining k queued
        // frames O(k * buffered bytes).
        if (offset_ > kCompactBytes && offset_ > buffer_.size() / 2) {
            buffer_.erase(0, offset_);
            offset_ = 0;
        }
        buffer_.append(bytes.data(), bytes.size());
    }

    std::optional<Frame>
    next()
    {
        const std::size_t available = buffer_.size() - offset_;
        if (available < kHeaderBytes)
            return std::nullopt;
        ByteReader reader(
            std::string_view(buffer_).substr(offset_, kHeaderBytes));
        const std::uint32_t length = reader.u32();
        if (length < 2)
            throw FramingError("frame too short for its header");
        if (length > kMaxFrameBytes)
            throw FramingError("frame length " +
                               std::to_string(length) +
                               " exceeds limit");
        if (available < kHeaderBytes + length)
            return std::nullopt;
        Frame frame;
        frame.type =
            static_cast<std::uint8_t>(buffer_[offset_ + kHeaderBytes]);
        frame.codec = static_cast<std::uint8_t>(
            buffer_[offset_ + kHeaderBytes + 1]);
        frame.wireBody = length - 2;
        const std::string_view body =
            std::string_view(buffer_)
                .substr(offset_ + kHeaderBytes + 2, length - 2);
        if (frame.codec == kCodecNone)
            frame.payload.assign(body);
        else if (frame.codec == kCodecLz4)
            frame.payload = decompressFrameBody(body);
        else
            throw FramingError("unknown frame codec " +
                               std::to_string(frame.codec));
        offset_ += kHeaderBytes + length;
        if (offset_ == buffer_.size()) {
            buffer_.clear();
            offset_ = 0;
        }
        return frame;
    }

    /** Buffered-but-incomplete byte count (tests/diagnostics). */
    std::size_t pendingBytes() const
    {
        return buffer_.size() - offset_;
    }

  private:
    static constexpr std::size_t kHeaderBytes = 4;
    /** Consumed-prefix size worth an O(n) compaction on feed(). */
    static constexpr std::size_t kCompactBytes = 64 * 1024;

    std::string buffer_;
    /** Bytes of buffer_ already returned as frames. */
    std::size_t offset_ = 0;
};

} // namespace codecrunch::dist
