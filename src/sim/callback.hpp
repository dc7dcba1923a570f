// callback.hpp — the move-only `void()` callable that every simulator event
// runs.
//
// A closure of up to kInlineBytes lives inside the Callback itself, so
// scheduling it touches no allocator. The bound is sized for the largest
// closure on the per-frame path: the Testbed's host-to-link hop, which
// captures `[this, &link, FrameMeta]` (160 B). Larger or over-aligned
// closures, and ones whose move constructor may throw, are boxed on the heap
// instead. nullptr, a null function pointer and an empty std::function all
// make an empty Callback.
#pragma once

#include <cstddef>
#include <cstring>
#include <functional>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace lvrm::sim {

namespace detail {
template <typename T>
inline constexpr bool kIsStdFunction = false;
template <typename R, typename... A>
inline constexpr bool kIsStdFunction<std::function<R(A...)>> = true;
}  // namespace detail

class Callback {
 public:
  static constexpr std::size_t kInlineBytes = 160;

  Callback() noexcept = default;
  Callback(std::nullptr_t) noexcept {}

  template <typename F, typename D = std::decay_t<F>>
    requires(!std::is_same_v<D, Callback> && std::is_invocable_v<D&>)
  Callback(F&& f) {
    emplace(std::forward<F>(f));
  }

  Callback(Callback&& other) noexcept { take(other); }
  Callback& operator=(Callback&& other) noexcept {
    if (this != &other) {
      reset();
      take(other);
    }
    return *this;
  }
  Callback(const Callback&) = delete;
  Callback& operator=(const Callback&) = delete;
  ~Callback() { reset(); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  /// True when a Callback made from `f` would be empty: nullptr, a null
  /// function pointer, an empty std::function or an empty Callback.
  template <typename F>
  static bool is_null(const F& f) noexcept {
    using D = std::decay_t<F>;
    if constexpr (std::is_same_v<D, std::nullptr_t>) {
      return true;
    } else if constexpr (std::is_pointer_v<D> || detail::kIsStdFunction<D> ||
                         std::is_same_v<D, Callback>) {
      return !f;
    } else {
      return false;
    }
  }

  /// Invokes the callable. Must not be empty.
  void operator()() { ops_->call(buf_); }

  /// Invokes the callable, then destroys it (also when it throws), leaving
  /// *this empty. One indirect call instead of operator() plus reset().
  void consume() { std::exchange(ops_, nullptr)->call_once(buf_); }

  void reset() noexcept {
    if (ops_ == nullptr) return;
    if (ops_->destroy != nullptr) ops_->destroy(buf_);
    ops_ = nullptr;
  }

  /// Constructs the callable from `f` in place. *this must be empty. Passing
  /// an rvalue Callback moves it in.
  template <typename F>
  void emplace(F&& f) {
    using D = std::decay_t<F>;
    if constexpr (std::is_same_v<D, Callback>) {
      static_assert(std::is_rvalue_reference_v<F&&>, "Callback is move-only");
      take(f);
    } else if constexpr (std::is_same_v<D, std::nullptr_t>) {
      // stays empty
    } else {
      if (is_null(f)) return;  // null function pointer, empty std::function
      if constexpr (fits_inline<D>) {
        ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
        ops_ = &kInlineOps<D>;
      } else {
        D* boxed = new D(std::forward<F>(f));
        std::memcpy(buf_, &boxed, sizeof(boxed));
        ops_ = &kBoxedOps<D>;
      }
    }
  }

 private:
  struct Ops {
    void (*call)(void* buf);
    void (*call_once)(void* buf);
    // Move-constructs the callable from `src` into `dst`, ending `src`'s.
    void (*relocate)(void* dst, void* src) noexcept;
    // Null when destruction is a no-op.
    void (*destroy)(void* buf) noexcept;
  };

  template <typename D>
  static constexpr bool fits_inline =
      sizeof(D) <= kInlineBytes &&
      alignof(D) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<D>;

  template <typename D>
  static D& inline_obj(void* buf) {
    return *std::launder(static_cast<D*>(buf));
  }
  template <typename D>
  static D* boxed_ptr(void* buf) {
    D* p = nullptr;
    std::memcpy(&p, buf, sizeof(p));
    return p;
  }

  template <typename D>
  static constexpr Ops kInlineOps{
      [](void* buf) { std::invoke(inline_obj<D>(buf)); },
      [](void* buf) {
        D& f = inline_obj<D>(buf);
        struct Guard {
          D& obj;
          ~Guard() { obj.~D(); }
        } guard{f};
        std::invoke(f);
      },
      [](void* dst, void* src) noexcept {
        D& from = inline_obj<D>(src);
        ::new (dst) D(std::move(from));
        from.~D();
      },
      std::is_trivially_destructible_v<D>
          ? nullptr
          : +[](void* buf) noexcept { inline_obj<D>(buf).~D(); },
  };

  template <typename D>
  static constexpr Ops kBoxedOps{
      [](void* buf) { std::invoke(*boxed_ptr<D>(buf)); },
      [](void* buf) {
        const std::unique_ptr<D> owned(boxed_ptr<D>(buf));
        std::invoke(*owned);
      },
      [](void* dst, void* src) noexcept {
        std::memcpy(dst, src, sizeof(D*));
      },
      [](void* buf) noexcept { delete boxed_ptr<D>(buf); },
  };

  void take(Callback& other) noexcept {
    if (other.ops_ == nullptr) return;
    other.ops_->relocate(buf_, other.buf_);
    ops_ = std::exchange(other.ops_, nullptr);
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace lvrm::sim
