#include "cstr/cstring.hpp"

#include "common/error.hpp"

namespace cs31::cstr {

namespace {
void check(const void* p, const char* what) {
  if (p == nullptr) throw Error(std::string(what) + " received a null pointer");
}
}  // namespace

std::size_t str_length(const char* s) {
  check(s, "str_length");
  const char* p = s;
  while (*p != '\0') ++p;
  return static_cast<std::size_t>(p - s);
}

char* str_copy(char* dst, const char* src) {
  check(dst, "str_copy"); check(src, "str_copy");
  char* out = dst;
  while ((*dst++ = *src++) != '\0') {
  }
  return out;
}

char* str_ncopy(char* dst, const char* src, std::size_t n) {
  check(dst, "str_ncopy"); check(src, "str_ncopy");
  char* out = dst;
  std::size_t i = 0;
  for (; i < n && src[i] != '\0'; ++i) dst[i] = src[i];
  for (; i < n; ++i) dst[i] = '\0';  // the strncpy padding rule
  return out;
}

char* str_concat(char* dst, const char* src) {
  check(dst, "str_concat"); check(src, "str_concat");
  str_copy(dst + str_length(dst), src);
  return dst;
}

char* str_nconcat(char* dst, const char* src, std::size_t n) {
  check(dst, "str_nconcat"); check(src, "str_nconcat");
  char* p = dst + str_length(dst);
  std::size_t i = 0;
  for (; i < n && src[i] != '\0'; ++i) p[i] = src[i];
  p[i] = '\0';  // strncat always terminates
  return dst;
}

int str_compare(const char* a, const char* b) {
  check(a, "str_compare"); check(b, "str_compare");
  while (*a != '\0' && *a == *b) { ++a; ++b; }
  return static_cast<unsigned char>(*a) - static_cast<unsigned char>(*b);
}

int str_ncompare(const char* a, const char* b, std::size_t n) {
  check(a, "str_ncompare"); check(b, "str_ncompare");
  for (std::size_t i = 0; i < n; ++i) {
    const unsigned char ca = static_cast<unsigned char>(a[i]);
    const unsigned char cb = static_cast<unsigned char>(b[i]);
    if (ca != cb) return ca - cb;
    if (ca == '\0') return 0;
  }
  return 0;
}

const char* str_find_char(const char* s, char c) {
  check(s, "str_find_char");
  for (;; ++s) {
    if (*s == c) return s;
    if (*s == '\0') return nullptr;
  }
}

const char* str_rfind_char(const char* s, char c) {
  check(s, "str_rfind_char");
  const char* found = nullptr;
  for (;; ++s) {
    if (*s == c) found = s;
    if (*s == '\0') return found;
  }
}

const char* str_find(const char* haystack, const char* needle) {
  check(haystack, "str_find"); check(needle, "str_find");
  if (*needle == '\0') return haystack;
  for (; *haystack != '\0'; ++haystack) {
    const char* h = haystack;
    const char* n = needle;
    while (*h != '\0' && *n != '\0' && *h == *n) { ++h; ++n; }
    if (*n == '\0') return haystack;
  }
  return nullptr;
}

namespace {
bool in_set(char c, const char* set) {
  for (; *set != '\0'; ++set) {
    if (*set == c) return true;
  }
  return false;
}
}  // namespace

std::size_t str_span(const char* s, const char* accept) {
  check(s, "str_span"); check(accept, "str_span");
  std::size_t n = 0;
  while (s[n] != '\0' && in_set(s[n], accept)) ++n;
  return n;
}

std::size_t str_cspan(const char* s, const char* reject) {
  check(s, "str_cspan"); check(reject, "str_cspan");
  std::size_t n = 0;
  while (s[n] != '\0' && !in_set(s[n], reject)) ++n;
  return n;
}

char* str_token(char* s, const char* delims, char** save_ptr) {
  check(delims, "str_token");
  check(save_ptr, "str_token");
  char* start = s != nullptr ? s : *save_ptr;
  if (start == nullptr) return nullptr;
  start += str_span(start, delims);  // skip leading delimiters
  if (*start == '\0') {
    *save_ptr = nullptr;
    return nullptr;
  }
  char* end = start + str_cspan(start, delims);
  if (*end == '\0') {
    *save_ptr = nullptr;
  } else {
    *end = '\0';
    *save_ptr = end + 1;
  }
  return start;
}

std::unique_ptr<char[]> str_duplicate(const char* s) {
  check(s, "str_duplicate");
  const std::size_t n = str_length(s) + 1;
  auto out = std::make_unique<char[]>(n);
  str_copy(out.get(), s);
  return out;
}

}  // namespace cs31::cstr
