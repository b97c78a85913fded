//===- perfbench/src/Fingerprint.cpp - Machine and build fingerprint -----===//

#include "Fingerprint.h"

#include "nn/Gemm.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace perfbench;
namespace fs = std::filesystem;

static std::string readFirstLine(const fs::path &P) {
  std::ifstream In(P);
  std::string L;
  std::getline(In, L);
  return L;
}

/// The processor brand string, from cpuid (no file outside the checkout
/// is read).
static std::string cpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned Max = __get_cpuid_max(0x80000000u, nullptr);
  if (Max >= 0x80000004u) {
    unsigned Regs[12] = {};
    for (unsigned I = 0; I < 3; ++I)
      __get_cpuid(0x80000002u + I, &Regs[4 * I], &Regs[4 * I + 1],
                  &Regs[4 * I + 2], &Regs[4 * I + 3]);
    char Brand[sizeof(Regs) + 1] = {};
    std::memcpy(Brand, Regs, sizeof(Regs));
    std::string S(Brand);
    size_t B = S.find_first_not_of(' ');
    return B == std::string::npos ? "unknown" : S.substr(B);
  }
#endif
  return "unknown";
}

/// HEAD's sha from the .git directory, without running git.
static std::string gitSha(const fs::path &Root) {
  fs::path Git = Root / ".git";
  std::string Head = readFirstLine(Git / "HEAD");
  if (Head.rfind("ref: ", 0) != 0)
    return Head.empty() ? "none" : Head;
  std::string Ref = Head.substr(5);
  std::string Sha = readFirstLine(Git / Ref);
  if (!Sha.empty())
    return Sha;
  std::ifstream Packed(Git / "packed-refs");
  std::string L;
  while (std::getline(Packed, L))
    if (L.size() > 41 && L.compare(41, std::string::npos, Ref) == 0)
      return L.substr(0, 40);
  return "none";
}

/// FNV-1a over the relative paths and bytes of every file under src/.
static std::string sourceDigest(const fs::path &Root) {
  std::vector<fs::path> Files;
  std::error_code Ec;
  for (fs::recursive_directory_iterator It(Root / "src", Ec), End;
       !Ec && It != End; It.increment(Ec))
    if (It->is_regular_file())
      Files.push_back(It->path());
  std::sort(Files.begin(), Files.end());
  uint64_t H = 1469598103934665603ull;
  auto Mix = [&H](const char *P, size_t N) {
    for (size_t I = 0; I != N; ++I) {
      H ^= static_cast<unsigned char>(P[I]);
      H *= 1099511628211ull;
    }
  };
  for (const fs::path &F : Files) {
    std::string Rel = fs::relative(F, Root).generic_string();
    Mix(Rel.data(), Rel.size() + 1);
    std::ifstream In(F, std::ios::binary);
    std::ostringstream Bytes;
    Bytes << In.rdbuf();
    std::string B = Bytes.str();
    Mix(B.data(), B.size());
  }
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx", static_cast<unsigned long long>(H));
  return Buf;
}

static std::string quoted(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) >= 0x20)
      Out += C;
  }
  return Out + "\"";
}

std::string perfbench::fingerprintJson(const std::string &RepoRoot) {
  fs::path Root(RepoRoot);
  std::ostringstream J;
  J << "{\"cpu\": " << quoted(cpuModel())
    << ", \"nproc\": " << std::thread::hardware_concurrency()
    << ", \"nn_backend\": " << quoted(au::nn::backendName(au::nn::backend()))
    << ", \"pool_threads\": " << au::ThreadPool::global().numThreads()
    << ", \"build_type\": " << quoted(PERFBENCH_BUILD_TYPE)
    << ", \"git_sha\": " << quoted(gitSha(Root))
    << ", \"src_digest\": " << quoted(sourceDigest(Root)) << "}";
  return J.str();
}
