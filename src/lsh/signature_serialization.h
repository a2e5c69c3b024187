// Internal helpers behind the signature store's Save()/Load()/LoadViews()
// (signature_store.cc). The byte layout is the "Signature section" of
// docs/FORMATS.md:
//
//   u8   kind              SignatureKind tag
//   u8   bits_per_hash     b for kBbitPacked, 0 otherwise
//   u16  reserved          0
//   u32  num_rows
//   u64  computed          the store's hashing-work tally
//   u32  lengths[num_rows] elements per row (words or ints)
//   u64  total_elems       sum of lengths (cross-check)
//   u32  pad_len           format v2 only: zero bytes before the blob
//   u8   pad[pad_len]      format v2 only: all zero, sizes the blob to a
//                          kSignatureBlobAlignment boundary
//   T    blob[total_elems] row data, concatenated in row order
//
// Loads are all-or-nothing: rows are decoded into a scratch vector and only
// swapped into the store once the whole section validated, so a throw
// leaves the store untouched. LoadSignatureRowViews is the zero-copy
// variant for mmap'd index files: instead of copying the blob it emits
// (pointer, length) views into the mapping, refusing files whose blob is
// not page-aligned.

#ifndef BAYESLSH_LSH_SIGNATURE_SERIALIZATION_H_
#define BAYESLSH_LSH_SIGNATURE_SERIALIZATION_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "lsh/store_base.h"
#include "vec/binary_io.h"

namespace bayeslsh::internal {

// Alignment of the signature blob in the v2 persistent-index layout: one
// page, so an mmap'd blob starts on a page boundary and every u64 row view
// is naturally aligned.
inline constexpr uint64_t kSignatureBlobAlignment = 4096;

// (pointer, element count) view of one row's signature slab.
template <typename T>
using RowSpan = std::pair<const T*, uint32_t>;

template <typename T>
void SaveSignatureRows(std::ostream& out, SignatureKind kind,
                       uint8_t bits_per_hash,
                       const std::vector<RowSpan<T>>& rows, uint64_t computed,
                       bool align_blob) {
  WritePod(out, static_cast<uint8_t>(kind));
  WritePod(out, bits_per_hash);
  WritePod(out, static_cast<uint16_t>(0));
  WritePod(out, static_cast<uint32_t>(rows.size()));
  WritePod(out, computed);
  std::vector<uint32_t> lengths;
  lengths.reserve(rows.size());
  uint64_t total = 0;
  for (const auto& [ptr, len] : rows) {
    lengths.push_back(len);
    total += len;
  }
  WritePodVec(out, lengths);
  WritePod(out, total);
  if (align_blob) {
    // Pad so the blob lands on an alignment boundary. A non-seekable sink
    // reports tellp() < 0; the file is still valid, just not mmap-able.
    const std::streampos pos = out.tellp();
    uint32_t pad = 0;
    if (pos >= 0) {
      const uint64_t blob_at =
          static_cast<uint64_t>(pos) + sizeof(uint32_t);
      pad = static_cast<uint32_t>(
          (kSignatureBlobAlignment - blob_at % kSignatureBlobAlignment) %
          kSignatureBlobAlignment);
    }
    WritePod(out, pad);
    const std::vector<char> zeros(pad, 0);
    out.write(zeros.data(), pad);
  }
  for (const auto& [ptr, len] : rows) {
    out.write(reinterpret_cast<const char*>(ptr),
              static_cast<std::streamsize>(len) *
                  static_cast<std::streamsize>(sizeof(T)));
  }
  if (!out) throw IoError("signature section: stream write failed");
}

// Everything before the blob, shared by the copying and zero-copy loaders.
struct SignatureSectionHeader {
  uint64_t computed = 0;
  std::vector<uint32_t> lengths;
  uint64_t total = 0;
};

inline SignatureSectionHeader ReadSignatureSectionHeader(
    std::istream& in, SignatureKind expected_kind, uint8_t expected_bits,
    uint32_t expected_rows, uint32_t length_multiple, const std::string& ctx) {
  const auto kind = ReadPod<uint8_t>(in, (ctx + "kind").c_str());
  if (kind != static_cast<uint8_t>(expected_kind)) {
    throw IoError(ctx + "wrong signature kind " + std::to_string(kind) +
                  " (expected " +
                  std::to_string(static_cast<int>(expected_kind)) + ")");
  }
  const auto bits = ReadPod<uint8_t>(in, (ctx + "bits_per_hash").c_str());
  if (bits != expected_bits) {
    throw IoError(ctx + "bits_per_hash " + std::to_string(bits) +
                  " does not match the store's " +
                  std::to_string(expected_bits));
  }
  (void)ReadPod<uint16_t>(in, (ctx + "reserved").c_str());
  const auto num_rows = ReadPod<uint32_t>(in, (ctx + "num_rows").c_str());
  if (num_rows != expected_rows) {
    throw IoError(ctx + "row count " + std::to_string(num_rows) +
                  " does not match the dataset's " +
                  std::to_string(expected_rows));
  }
  SignatureSectionHeader hdr;
  hdr.computed = ReadPod<uint64_t>(in, (ctx + "computed").c_str());
  ReadPodVec(in, &hdr.lengths, num_rows, (ctx + "lengths").c_str());
  for (const uint32_t len : hdr.lengths) {
    if (len % length_multiple != 0) {
      throw IoError(ctx + "row length " + std::to_string(len) +
                    " is not a multiple of the growth chunk " +
                    std::to_string(length_multiple));
    }
    hdr.total += len;
  }
  const auto stored_total = ReadPod<uint64_t>(in, (ctx + "total").c_str());
  if (stored_total != hdr.total) {
    throw IoError(ctx + "length table is inconsistent with the row total");
  }
  return hdr;
}

// Consumes the v2 pad field + pad bytes, fail-closed: a pad as long as the
// alignment or a nonzero pad byte is corruption, not slack.
inline void ReadSignatureBlobPad(std::istream& in, const std::string& ctx) {
  const auto pad = ReadPod<uint32_t>(in, (ctx + "blob padding").c_str());
  if (pad >= kSignatureBlobAlignment) {
    throw IoError(ctx + "blob padding of " + std::to_string(pad) +
                  " bytes is not smaller than the alignment");
  }
  if (pad == 0) return;
  std::vector<char> zeros(pad);
  in.read(zeros.data(), pad);
  if (!in) throw IoError("truncated " + ctx + "blob padding");
  for (const char c : zeros) {
    if (c != 0) throw IoError(ctx + "nonzero blob padding byte");
  }
}

// Decodes one section into (rows, computed). `expected_rows` is the
// dataset's row count; `expected_bits` is the b-bit width (0 for the
// full-width stores); every row length must be a multiple of
// `length_multiple` (the store's growth quantum in elements, so loaded
// rows satisfy the chunk-alignment invariant growth relies on). `what`
// names the store kind in error messages; `padded` selects the v2 wire
// layout.
template <typename T>
void LoadSignatureRows(std::istream& in, SignatureKind expected_kind,
                       uint8_t expected_bits, uint32_t expected_rows,
                       uint32_t length_multiple, const char* what,
                       std::vector<std::vector<T>>* rows_out,
                       uint64_t* computed_out, bool padded) {
  const std::string ctx = std::string("signature section (") + what + "): ";
  const SignatureSectionHeader hdr = ReadSignatureSectionHeader(
      in, expected_kind, expected_bits, expected_rows, length_multiple, ctx);
  if (padded) ReadSignatureBlobPad(in, ctx);
  std::vector<T> blob;
  ReadPodVec(in, &blob, hdr.total, (ctx + "row data").c_str());
  std::vector<std::vector<T>> rows(expected_rows);
  const T* p = blob.data();
  for (uint32_t r = 0; r < expected_rows; ++r) {
    rows[r].assign(p, p + hdr.lengths[r]);
    p += hdr.lengths[r];
  }
  rows_out->swap(rows);
  *computed_out = hdr.computed;
}

// Zero-copy loader: validates the same section header, then resolves each
// row to a view into the mapping backing `in` instead of copying the blob.
// Requires the v2 layout with the blob actually landing on an alignment
// boundary (which also guarantees every u64/u32 view is naturally aligned)
// and fully inside [mapped_base, mapped_base + mapped_size). Leaves `in`
// positioned just past the blob, as if it had been read.
template <typename T>
void LoadSignatureRowViews(std::istream& in, const char* mapped_base,
                           size_t mapped_size, SignatureKind expected_kind,
                           uint8_t expected_bits, uint32_t expected_rows,
                           uint32_t length_multiple, const char* what,
                           std::vector<RowSpan<T>>* views_out,
                           uint64_t* computed_out) {
  const std::string ctx = std::string("signature section (") + what + "): ";
  const SignatureSectionHeader hdr = ReadSignatureSectionHeader(
      in, expected_kind, expected_bits, expected_rows, length_multiple, ctx);
  ReadSignatureBlobPad(in, ctx);
  const std::streampos pos = in.tellg();
  if (pos < 0) {
    throw IoError(ctx + "stream is not seekable; cannot take row views");
  }
  const uint64_t blob_off = static_cast<uint64_t>(pos);
  if (blob_off % kSignatureBlobAlignment != 0) {
    throw IoError(ctx + "blob at offset " + std::to_string(blob_off) +
                  " is not " + std::to_string(kSignatureBlobAlignment) +
                  "-byte aligned; not a zero-copy index layout");
  }
  const uint64_t blob_bytes = hdr.total * sizeof(T);
  if (blob_off + blob_bytes > mapped_size) {
    throw IoError(ctx + "blob extends past the end of the mapped file");
  }
  std::vector<RowSpan<T>> views;
  views.reserve(expected_rows);
  const char* p = mapped_base + blob_off;
  for (uint32_t r = 0; r < expected_rows; ++r) {
    views.emplace_back(reinterpret_cast<const T*>(p), hdr.lengths[r]);
    p += static_cast<uint64_t>(hdr.lengths[r]) * sizeof(T);
  }
  in.seekg(static_cast<std::streamoff>(blob_off + blob_bytes));
  if (!in) throw IoError("truncated " + ctx + "row data");
  views_out->swap(views);
  *computed_out = hdr.computed;
}

}  // namespace bayeslsh::internal

#endif  // BAYESLSH_LSH_SIGNATURE_SERIALIZATION_H_
