#include "crypto/sha.h"

#include <openssl/evp.h>

namespace rsse::crypto {

namespace {

Bytes Digest(const EVP_MD* md, const Bytes& data) {
  Bytes out(EVP_MD_get_size(md));
  unsigned int out_len = 0;
  EVP_Digest(data.data(), data.size(), out.data(), &out_len, md, nullptr);
  out.resize(out_len);
  return out;
}

/// SHA-256 fetched from the default provider once per process: the
/// one-shot EVP_Digest(EVP_sha256()) path repeats that provider lookup and
/// a context allocation on every call, which is most of the cost of a
/// 17-byte KDF digest. A fetched EVP_MD is immutable and shareable across
/// threads.
const EVP_MD* FetchedSha256() {
  static EVP_MD* md = EVP_MD_fetch(nullptr, "SHA256", nullptr);
  return md;
}

/// Owns the per-thread digest context so it is released on thread exit.
/// thread_local is the synchronization, as for the GGM PRG's AES context:
/// each thread initializes and uses only its own context.
struct MdCtxHolder {
  EVP_MD_CTX* ctx = nullptr;

  ~MdCtxHolder() {
    if (ctx != nullptr) EVP_MD_CTX_free(ctx);
  }
};

EVP_MD_CTX* ThreadMdCtx() {
  thread_local MdCtxHolder holder;
  if (holder.ctx == nullptr) holder.ctx = EVP_MD_CTX_new();
  return holder.ctx;
}

}  // namespace

Bytes Sha1(const Bytes& data) { return Digest(EVP_sha1(), data); }

Bytes Sha256(const Bytes& data) {
  Bytes out(32);
  if (!Sha256Into(data, out.data())) out.clear();
  return out;
}

bool Sha256Into(ConstByteSpan data, uint8_t out[32]) {
  const EVP_MD* md = FetchedSha256();
  EVP_MD_CTX* ctx = ThreadMdCtx();
  unsigned int out_len = 0;
  return md != nullptr && ctx != nullptr &&
         EVP_DigestInit_ex2(ctx, md, nullptr) == 1 &&
         EVP_DigestUpdate(ctx, data.data(), data.size()) == 1 &&
         EVP_DigestFinal_ex(ctx, out, &out_len) == 1 && out_len == 32;
}

Bytes Sha512(const Bytes& data) { return Digest(EVP_sha512(), data); }

}  // namespace rsse::crypto
