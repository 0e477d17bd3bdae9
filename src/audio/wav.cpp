#include "audio/wav.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <vector>

#include "common/error.hpp"
#include "common/fault.hpp"

namespace earsonar::audio {

namespace {

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xff));
  out.push_back(static_cast<std::uint8_t>((v >> 8) & 0xff));
  out.push_back(static_cast<std::uint8_t>((v >> 16) & 0xff));
  out.push_back(static_cast<std::uint8_t>((v >> 24) & 0xff));
}

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xff));
  out.push_back(static_cast<std::uint8_t>((v >> 8) & 0xff));
}

// Byte-wise like put_u32: GCC 12 flags vector::insert of a four-char literal
// range with a false-positive -Wstringop-overflow in sanitizer builds.
void put_tag(std::vector<std::uint8_t>& out, const char (&tag)[5]) {
  for (std::size_t i = 0; i < 4; ++i)
    out.push_back(static_cast<std::uint8_t>(tag[i]));
}

std::uint32_t get_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) | (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint16_t get_u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

}  // namespace

void write_wav(const std::string& path, const Waveform& waveform, WavEncoding encoding) {
  if (fault::point("wav.write")) fail("injected fault: wav.write: " + path);
  require_nonempty("write_wav samples", waveform.size());
  const std::uint16_t format = encoding == WavEncoding::kPcm16 ? 1 : 3;
  const std::uint16_t bits = encoding == WavEncoding::kPcm16 ? 16 : 32;
  const std::uint16_t channels = 1;
  const std::uint32_t rate = static_cast<std::uint32_t>(waveform.sample_rate());
  const std::uint16_t block = static_cast<std::uint16_t>(channels * bits / 8);
  const std::uint32_t data_bytes = static_cast<std::uint32_t>(waveform.size()) * block;

  std::vector<std::uint8_t> bytes;
  bytes.reserve(44 + data_bytes);
  put_tag(bytes, "RIFF");
  put_u32(bytes, 36 + data_bytes);
  put_tag(bytes, "WAVE");
  put_tag(bytes, "fmt ");
  put_u32(bytes, 16);
  put_u16(bytes, format);
  put_u16(bytes, channels);
  put_u32(bytes, rate);
  put_u32(bytes, rate * block);
  put_u16(bytes, block);
  put_u16(bytes, bits);
  put_tag(bytes, "data");
  put_u32(bytes, data_bytes);

  for (double s : waveform.samples()) {
    const double clipped = std::clamp(s, -1.0, 1.0);
    if (encoding == WavEncoding::kPcm16) {
      const auto v = static_cast<std::int16_t>(std::lround(clipped * 32767.0));
      put_u16(bytes, static_cast<std::uint16_t>(v));
    } else {
      const float f = static_cast<float>(clipped);
      std::uint32_t raw;
      std::memcpy(&raw, &f, sizeof raw);
      put_u32(bytes, raw);
    }
  }

  std::ofstream out(path, std::ios::binary);
  if (!out) fail("write_wav: cannot open " + path);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) fail("write_wav: write failed for " + path);
}

Waveform parse_wav(std::span<const std::uint8_t> bytes, const std::string& name) {
  if (bytes.size() < 44) fail("read_wav: file too short: " + name);
  if (std::memcmp(bytes.data(), "RIFF", 4) != 0 || std::memcmp(bytes.data() + 8, "WAVE", 4) != 0)
    fail("read_wav: not a RIFF/WAVE file: " + name);

  // Walk chunks to find fmt and data. All arithmetic is in std::size_t with
  // the 32-bit chunk size widened first, so a hostile 0xFFFFFFFF size cannot
  // wrap the position; each chunk is bounds-checked before it is advanced
  // over or read.
  std::size_t pos = 12;
  std::uint16_t format = 0, channels = 0, bits = 0;
  std::uint32_t rate = 0;
  bool have_fmt = false;
  const std::uint8_t* data = nullptr;
  std::size_t data_bytes = 0;
  while (pos + 8 <= bytes.size()) {
    const std::size_t chunk_size = get_u32(bytes.data() + pos + 4);
    const std::size_t body = pos + 8;
    const std::size_t available = bytes.size() - body;
    if (std::memcmp(bytes.data() + pos, "fmt ", 4) == 0) {
      if (chunk_size < 16 || available < 16)
        fail("read_wav: truncated fmt chunk: " + name);
      format = get_u16(bytes.data() + body);
      channels = get_u16(bytes.data() + body + 2);
      rate = get_u32(bytes.data() + body + 4);
      bits = get_u16(bytes.data() + body + 14);
      have_fmt = true;
    } else if (std::memcmp(bytes.data() + pos, "data", 4) == 0) {
      data = bytes.data() + body;
      // A data size beyond the bytes present means a truncated file; the
      // frames that did arrive are still good, so cap rather than reject.
      data_bytes = std::min(chunk_size, available);
    }
    if (chunk_size > available) {
      if (data != nullptr) break;  // truncated trailing chunk after data
      fail("read_wav: chunk size overruns file: " + name);
    }
    pos = body + chunk_size + (chunk_size & 1);  // chunks are word-aligned
  }
  if (data == nullptr) fail("read_wav: no data chunk: " + name);
  if (!have_fmt || channels == 0 || rate == 0)
    fail("read_wav: no usable fmt chunk: " + name);

  const bool pcm16 = format == 1 && bits == 16;
  const bool f32 = format == 3 && bits == 32;
  if (!pcm16 && !f32) fail("read_wav: unsupported encoding in " + name);

  const std::size_t bytes_per_sample = bits / 8;
  const std::size_t frame_bytes = bytes_per_sample * channels;
  const std::size_t frames = data_bytes / frame_bytes;
  std::vector<double> samples(frames);
  for (std::size_t i = 0; i < frames; ++i) {
    const std::uint8_t* p = data + i * frame_bytes;  // first channel only
    if (pcm16) {
      const auto v = static_cast<std::int16_t>(get_u16(p));
      samples[i] = static_cast<double>(v) / 32767.0;
    } else {
      const std::uint32_t raw = get_u32(p);
      float f;
      std::memcpy(&f, &raw, sizeof f);
      samples[i] = static_cast<double>(f);
    }
  }
  return Waveform(std::move(samples), static_cast<double>(rate));
}

Waveform read_wav(const std::string& path) {
  if (fault::point("wav.read")) fail("injected fault: wav.read: " + path);
  std::ifstream in(path, std::ios::binary);
  if (!in) fail("read_wav: cannot open " + path);
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
  return parse_wav(bytes, path);
}

}  // namespace earsonar::audio
