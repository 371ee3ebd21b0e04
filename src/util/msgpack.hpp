#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/json.hpp"

namespace ftio::util::msgpack {

/// Serialises a Json document to MessagePack bytes. The TMIO online mode
/// (Sec. II-A) can flush either JSON Lines or MessagePack; both formats
/// carry the same document model.
std::vector<std::uint8_t> encode(const Json& value);

/// Appends the encoding of `value` to `out` (used to stream multiple
/// documents into one file, the MessagePack analogue of JSON Lines).
void encode_to(const Json& value, std::vector<std::uint8_t>& out);

/// Decodes a single MessagePack document from the front of `bytes`;
/// `consumed` receives the number of bytes read. Throws ParseError on
/// malformed or truncated input.
Json decode(std::span<const std::uint8_t> bytes, std::size_t& consumed);

/// Walks the document at the front of `bytes` with decode's grammar into
/// `fields`, keeping only the top-level keys the capture names; `consumed`
/// receives the number of bytes read. Throws ParseError exactly where
/// decode would.
void decode_fields(std::span<const std::uint8_t> bytes, std::size_t& consumed,
                   FieldCapture& fields);

/// Decodes exactly one document; throws if trailing bytes remain.
Json decode(std::span<const std::uint8_t> bytes);

/// Decodes a stream of back-to-back documents until the buffer is empty.
std::vector<Json> decode_stream(std::span<const std::uint8_t> bytes);

}  // namespace ftio::util::msgpack
