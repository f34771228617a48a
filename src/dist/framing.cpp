/**
 * LZ4 glue for the frame codec byte: the header-only parts of
 * framing.hpp stay dependency-free; only the compressed-body paths
 * touch src/compress/.
 */
#include "dist/framing.hpp"

#include "compress/lz4_codec.hpp"

namespace codecrunch::dist {

namespace {

/**
 * Largest raw/packed ratio of an LZ4 block: a match sequence turns at
 * least 3 + k input bytes into at most 19 + 255k output bytes.
 */
constexpr std::uint64_t kLz4MaxExpansion = 255;

const compress::Lz4Codec&
codec()
{
    static const compress::Lz4Codec instance;
    return instance;
}

} // namespace

std::string
encodeFrameLz4(std::uint8_t type, std::string_view payload)
{
    if (payload.size() < kFrameCompressMinBytes)
        return encodeFrame(type, payload);
    const compress::Bytes raw(payload.begin(), payload.end());
    const compress::Bytes packed = codec().compress(raw);
    // 8 bytes of rawSize prefix ride along; compression must beat
    // that overhead or the raw frame is strictly better.
    if (packed.size() + 8 >= payload.size())
        return encodeFrame(type, payload);
    ByteWriter writer;
    writer.u32(static_cast<std::uint32_t>(packed.size() + 8 + 2));
    writer.u8(type);
    writer.u8(kCodecLz4);
    writer.u64(payload.size());
    writer.raw(std::string_view(
        reinterpret_cast<const char*>(packed.data()),
        packed.size()));
    return writer.take();
}

std::string
decompressFrameBody(std::string_view body)
{
    ByteReader reader(body);
    const std::uint64_t rawSize = reader.u64();
    // Cap before allocating: a corrupt size prefix must not OOM.
    if (rawSize >= kMaxFrameBytes)
        throw FramingError("compressed frame claims raw size " +
                           std::to_string(rawSize));
    const std::string_view packedView = body.substr(8);
    // A claim beyond LZ4's expansion ceiling is corrupt: refuse it
    // before the decoder reserves it.
    if (rawSize > kLz4MaxExpansion * packedView.size())
        throw FramingError("compressed frame claims raw size " +
                           std::to_string(rawSize) + " from " +
                           std::to_string(packedView.size()) +
                           " packed bytes");
    const compress::Bytes packed(packedView.begin(),
                                 packedView.end());
    const auto raw = codec().decompress(
        packed, static_cast<std::size_t>(rawSize));
    if (!raw || raw->size() != rawSize)
        throw FramingError("corrupt LZ4 frame body");
    return std::string(raw->begin(), raw->end());
}

} // namespace codecrunch::dist
