/**
 * @file
 * Frame-layer tests for the dist wire: framing (round trip, partial
 * feeds, compaction, malformed and oversized length prefixes), LZ4
 * frame bodies (round trip, raw fallback, corrupt bodies, the raw-size
 * bound), and seeded mutated streams of valid protocol frames pushed
 * through FrameParser and the protocol.hpp decoders. Nothing here opens
 * a socket or starts a thread, so the sanitizer jobs run it whole.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "dist/framing.hpp"
#include "dist/protocol.hpp"

using namespace codecrunch;
using namespace codecrunch::dist;

// --- Framing ------------------------------------------------------------

TEST(Framing, RoundTripsAcrossPartialFeeds)
{
    const std::string frame = encodeFrame(7, "hello");
    FrameParser parser;
    // Feed byte by byte: no frame until the last byte arrives.
    for (std::size_t i = 0; i + 1 < frame.size(); ++i) {
        parser.feed(std::string_view(&frame[i], 1));
        EXPECT_FALSE(parser.next().has_value());
    }
    parser.feed(std::string_view(&frame.back(), 1));
    const auto out = parser.next();
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(out->type, 7);
    EXPECT_EQ(out->payload, "hello");
    EXPECT_FALSE(parser.next().has_value());
    EXPECT_EQ(parser.pendingBytes(), 0u);
}

TEST(Framing, ManyFramesInOneFeed)
{
    std::string wire;
    for (int i = 0; i < 5; ++i)
        wire += encodeFrame(static_cast<std::uint8_t>(i),
                            std::string(i, 'x'));
    FrameParser parser;
    parser.feed(wire);
    for (int i = 0; i < 5; ++i) {
        const auto frame = parser.next();
        ASSERT_TRUE(frame.has_value());
        EXPECT_EQ(frame->type, i);
        EXPECT_EQ(frame->payload.size(),
                  static_cast<std::size_t>(i));
    }
    EXPECT_FALSE(parser.next().has_value());
}

TEST(Framing, CursorSurvivesCompactionAcrossManyFrames)
{
    // Push enough consumed bytes through the parser to cross its
    // internal compaction threshold several times, interleaving
    // feeds and pops so frames straddle compaction points.
    FrameParser parser;
    const std::string payload(1031, 'p');
    std::string wire;
    for (int i = 0; i < 400; ++i)
        wire += encodeFrame(static_cast<std::uint8_t>(i % 251),
                            payload);
    std::size_t popped = 0;
    for (std::size_t at = 0; at < wire.size();) {
        const std::size_t chunk =
            std::min<std::size_t>(4096, wire.size() - at);
        parser.feed(std::string_view(wire).substr(at, chunk));
        at += chunk;
        while (auto frame = parser.next()) {
            EXPECT_EQ(frame->type,
                      static_cast<std::uint8_t>(popped % 251));
            EXPECT_EQ(frame->payload, payload);
            ++popped;
        }
    }
    EXPECT_EQ(popped, 400u);
    EXPECT_EQ(parser.pendingBytes(), 0u);
}

TEST(Framing, ZeroLengthFrameIsRejected)
{
    FrameParser parser;
    parser.feed(std::string(5, '\0')); // length 0 + one junk byte
    EXPECT_THROW(parser.next(), FramingError);
}

TEST(Framing, OversizedLengthIsRejectedBeforeAllocation)
{
    ByteWriter writer;
    writer.u32(kMaxFrameBytes + 1);
    FrameParser parser;
    parser.feed(writer.bytes());
    EXPECT_THROW(parser.next(), FramingError);
}

TEST(Framing, OversizedPayloadCannotBeEncoded)
{
    // Encoding checks the bound too, so a huge result fails loudly on
    // the sender instead of poisoning the stream.
    EXPECT_THROW(
        encodeFrame(1, std::string_view(nullptr, kMaxFrameBytes)),
        FramingError);
}

// --- LZ4 frame compression ----------------------------------------------

TEST(FramingLz4, CompressibleFrameRoundTripsSmaller)
{
    const std::string payload(32 * 1024, 'z');
    const std::string wire = encodeFrameLz4(8, payload);
    ASSERT_GT(wire.size(), 6u);
    EXPECT_EQ(static_cast<std::uint8_t>(wire[5]), kCodecLz4);
    EXPECT_LT(wire.size(), payload.size() / 2);

    FrameParser parser;
    parser.feed(wire);
    const auto frame = parser.next();
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->type, 8);
    EXPECT_EQ(frame->codec, kCodecLz4);
    EXPECT_EQ(frame->payload, payload);
}

TEST(FramingLz4, SmallFramesStayRaw)
{
    const std::string wire = encodeFrameLz4(8, "tiny");
    EXPECT_EQ(static_cast<std::uint8_t>(wire[5]), kCodecNone);
    FrameParser parser;
    parser.feed(wire);
    const auto frame = parser.next();
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->payload, "tiny");
    EXPECT_EQ(frame->codec, kCodecNone);
}

TEST(FramingLz4, IncompressiblePayloadFallsBackToRaw)
{
    std::string noise;
    Rng rng(7);
    for (std::size_t i = 0; i < 2 * kFrameCompressMinBytes; ++i)
        noise.push_back(static_cast<char>(rng.next() & 0xff));
    const std::string wire = encodeFrameLz4(8, noise);
    EXPECT_EQ(static_cast<std::uint8_t>(wire[5]), kCodecNone);
    FrameParser parser;
    parser.feed(wire);
    ASSERT_TRUE(parser.next().has_value());
}

TEST(FramingLz4, CorruptCompressedBodyIsRejected)
{
    const std::string payload(32 * 1024, 'z');
    std::string wire = encodeFrameLz4(8, payload);
    ASSERT_EQ(static_cast<std::uint8_t>(wire[5]), kCodecLz4);
    wire[wire.size() / 2] ^= 0x5a; // flip a bit mid-body
    FrameParser parser;
    parser.feed(wire);
    EXPECT_THROW(parser.next(), DecodeError);
}

TEST(FramingLz4, UnknownCodecByteIsRejected)
{
    std::string wire = encodeFrame(8, "payload");
    wire[5] = static_cast<char>(0x7f);
    FrameParser parser;
    parser.feed(wire);
    EXPECT_THROW(parser.next(), FramingError);
}

TEST(FramingLz4, RawSizeAboveExpansionBoundIsRejected)
{
    // A 2-byte LZ4 body that claims just under kMaxFrameBytes of raw
    // payload: refused before the decoder reserves the claim.
    ByteWriter writer;
    writer.u32(2 + 8 + 2);
    writer.u8(8);
    writer.u8(kCodecLz4);
    writer.u64(kMaxFrameBytes - 1);
    writer.u8(0x00);
    writer.u8(0x00);
    FrameParser parser;
    parser.feed(writer.bytes());
    try {
        parser.next();
        FAIL() << "a 2-byte body claiming 268435455 bytes was accepted";
    } catch (const FramingError& error) {
        EXPECT_NE(std::string(error.what())
                      .find("raw size 268435455 from 2 packed bytes"),
                  std::string::npos)
            << error.what();
    }
}

TEST(FramingLz4, SixteenMiBOfZerosRoundTrips)
{
    // The densest payload there is packs close to the 255:1 bound.
    const std::string payload(16u << 20, '\0');
    const std::string wire = encodeFrameLz4(8, payload);
    ASSERT_EQ(static_cast<std::uint8_t>(wire[5]), kCodecLz4);
    EXPECT_GT(payload.size(), 250 * (wire.size() - 14));
    FrameParser parser;
    parser.feed(wire);
    const auto frame = parser.next();
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->payload, payload);
}

// --- Mutated frame streams ---------------------------------------------

namespace {

/** One valid frame of each protocol message, raw and LZ4 bodies. */
std::vector<std::string>
validFrames()
{
    std::vector<std::string> frames;
    const auto add = [&](MsgType type, const std::string& payload) {
        frames.push_back(
            encodeFrameLz4(static_cast<std::uint8_t>(type), payload));
    };
    Hello hello;
    hello.pid = 4242;
    hello.nextPlanSeq = 3;
    add(MsgType::Hello, encodeHello(hello));
    HelloAck ack;
    ack.workerId = 2;
    ack.codec = kCodecLz4;
    add(MsgType::HelloAck, encodeHelloAck(ack));
    add(MsgType::HelloReject, encodeText("protocol version mismatch"));
    add(MsgType::PlanBegin, encodePlanBegin({7, "fig07", 5, 0xfeedu}));
    add(MsgType::PlanAck, encodeSeqOnly(7));
    add(MsgType::JobRequest, encodeSeqOnly(7));
    add(MsgType::JobAssign, encodeJobAssign({7, 3}));
    add(MsgType::Heartbeat, "");
    add(MsgType::Heartbeat, encodeSeqOnly(99));
    // Payloads past kFrameCompressMinBytes travel as LZ4 bodies.
    const std::string result(6000, 'r');
    add(MsgType::JobResult, encodeJobResult({7, 3, result, "stats"}));
    add(MsgType::JobFailed, encodeJobResult({7, 4, "boom", ""}));
    PlanResults results;
    results.planSeq = 7;
    results.outcomes = {{result, ""}, {"", "job threw"}, {"ok", ""}};
    const std::string resultsPayload = encodePlanResults(results);
    add(MsgType::PlanResults, resultsPayload);
    PlanCatchUp catchUp;
    catchUp.fromSeq = 6;
    catchUp.entries = {{0xabcu, resultsPayload}, {0xdefu, "x"}};
    catchUp.statsBaseline = "baseline";
    add(MsgType::PlanCatchUp, encodePlanCatchUp(catchUp));
    add(MsgType::Error, encodeText("worker lost its plan"));
    add(MsgType::Shutdown, "");
    add(MsgType::Bye, "");
    return frames;
}

/**
 * Decode `frame`'s payload the way the master or worker would for its
 * type. Throws DecodeError when the payload is malformed.
 */
void
decodePayload(const Frame& frame)
{
    const std::string_view payload = frame.payload;
    switch (static_cast<MsgType>(frame.type)) {
    case MsgType::Hello:
        decodeHello(payload);
        break;
    case MsgType::HelloAck:
        decodeHelloAck(payload);
        break;
    case MsgType::HelloReject:
    case MsgType::Error:
        decodeText(payload, "text");
        break;
    case MsgType::PlanBegin:
        decodePlanBegin(payload);
        break;
    case MsgType::PlanAck:
    case MsgType::JobRequest:
        decodeSeqOnly(payload, "seq");
        break;
    case MsgType::Heartbeat:
        if (!payload.empty())
            decodeSeqOnly(payload, "Heartbeat");
        break;
    case MsgType::JobAssign:
        decodeJobAssign(payload);
        break;
    case MsgType::JobResult:
    case MsgType::JobFailed:
        decodeJobResult(payload);
        break;
    case MsgType::PlanResults:
        decodePlanResults(payload);
        break;
    case MsgType::PlanCatchUp:
        for (const auto& entry : decodePlanCatchUp(payload).entries)
            decodePlanResults(entry.resultsPayload);
        break;
    default: // Shutdown, Bye and unknown tags carry nothing to decode
        break;
    }
}

/** Byte offsets at which each frame of `frames` starts in their join. */
std::vector<std::size_t>
frameStarts(const std::vector<std::string>& frames)
{
    std::vector<std::size_t> starts;
    std::size_t at = 0;
    for (const auto& frame : frames) {
        starts.push_back(at);
        at += frame.size();
    }
    return starts;
}

} // namespace

TEST(FrameStream, MutatedStreamsYieldFramesNothingOrDecodeErrors)
{
    constexpr int kStreams = 10000;
    const auto frames = validFrames();
    Rng rng(77);
    std::size_t decoded = 0, payloadErrors = 0, streamErrors = 0;
    for (int s = 0; s < kStreams; ++s) {
        std::vector<std::string> picked;
        for (auto k = rng.uniformInt(1, 6); k > 0; --k)
            picked.push_back(frames[rng.next() % frames.size()]);
        const auto starts = frameStarts(picked);
        std::string wire;
        for (const auto& frame : picked)
            wire += frame;
        for (auto m = rng.uniformInt(1, 3); m > 0 && !wire.empty(); --m) {
            const std::size_t frame = rng.next() % picked.size();
            switch (rng.next() % 4) {
            case 0: { // flip one bit anywhere
                const std::size_t at = rng.next() % wire.size();
                wire[at] = static_cast<char>(wire[at] ^
                                             (1 << (rng.next() % 8)));
                break;
            }
            case 1: // cut the stream short
                wire.resize(rng.next() % wire.size());
                break;
            case 2: { // rewrite a length prefix, near or far from true
                if (starts[frame] + 4 > wire.size())
                    break;
                ByteReader reader(
                    std::string_view(wire).substr(starts[frame], 4));
                std::uint32_t length = reader.u32();
                length = rng.bernoulli(0.5)
                    ? length + static_cast<std::uint32_t>(
                                   rng.uniformInt(-8, 8))
                    : static_cast<std::uint32_t>(rng.next());
                for (int i = 0; i < 4; ++i)
                    wire[starts[frame] + i] =
                        static_cast<char>((length >> (8 * i)) & 0xff);
                break;
            }
            default: { // rewrite an LZ4 body's raw-size prefix
                const std::size_t at = starts[frame] + 6;
                if (at + 8 > wire.size() ||
                    static_cast<std::uint8_t>(wire[at - 1]) != kCodecLz4)
                    break;
                const std::uint64_t rawSize = rng.bernoulli(0.5)
                    ? rng.next() % (std::uint64_t{kMaxFrameBytes} * 2)
                    : rng.next() % 100000;
                for (int i = 0; i < 8; ++i)
                    wire[at + i] =
                        static_cast<char>((rawSize >> (8 * i)) & 0xff);
                break;
            }
            }
        }
        // Feed in random splits; each step pops every complete frame.
        FrameParser parser;
        bool dropped = false;
        for (std::size_t at = 0; at < wire.size() && !dropped;) {
            const std::size_t chunk = std::min<std::size_t>(
                1 + rng.next() % 64, wire.size() - at);
            parser.feed(std::string_view(wire).substr(at, chunk));
            at += chunk;
            while (true) {
                std::optional<Frame> frame;
                try {
                    frame = parser.next();
                } catch (const DecodeError&) {
                    // The connection is dropped, never resynchronized.
                    ++streamErrors;
                    dropped = true;
                    break;
                }
                if (!frame)
                    break;
                try {
                    decodePayload(*frame);
                    ++decoded;
                } catch (const DecodeError&) {
                    ++payloadErrors;
                }
            }
        }
    }
    // Every outcome happened, so each path above was exercised.
    EXPECT_GT(decoded, 0u);
    EXPECT_GT(payloadErrors, 0u);
    EXPECT_GT(streamErrors, 0u);
}
