//===- support/SmallVec.h - Inline-capacity small vector -------*- C++ -*-===//
//
// Part of the cai project: a reproduction of "Combining Abstract
// Interpreters" (Gulwani & Tiwari, PLDI 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A contiguous dynamic array with N elements of inline storage, in the
/// LLVM SmallVector mold: the first N elements live inside the object and
/// only growth past N touches the heap.
///
/// The hot containers of this library are rows -- simplex tableau rows,
/// Karr/AffineSystem RREF rows, Fourier-Motzkin constraint rows -- and
/// conjunction atom lists, all of which are built, combined and destroyed
/// in inner fixpoint loops and are almost always short (a handful of
/// variables).  With std::vector each of those is a malloc/free pair;
/// with SmallVec the common case is pointer bumps in already-hot stack or
/// owner memory.
///
/// Deliberate deviations from std::vector:
///   - An *implicit* converting constructor from std::vector<T> (moving
///     the elements).  Rows flow in from APIs that still build
///     std::vectors (parser, tests); absorbing them at the signature
///     boundary keeps call sites unchanged.
///   - No shrink_to_fit, no allocator parameter, iterators are plain T*.
///
/// Capacity choices for the library's aliases are documented in DESIGN.md
/// ("Three-tier exact arithmetic and small-vector rows").
///
//===----------------------------------------------------------------------===//

#ifndef CAI_SUPPORT_SMALLVEC_H
#define CAI_SUPPORT_SMALLVEC_H

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <memory>
#include <new>
#include <utility>
#include <vector>

namespace cai {

/// A dynamic array storing up to \p N elements inline before spilling to
/// the heap.
template <typename T, unsigned N> class SmallVec {
public:
  using value_type = T;
  using iterator = T *;
  using const_iterator = const T *;
  using size_type = size_t;

  SmallVec() : Data(inlineData()), Count(0), Cap(N) {}

  explicit SmallVec(size_t Size) : SmallVec() { resize(Size); }

  SmallVec(size_t Size, const T &Value) : SmallVec() {
    reserve(Size);
    std::uninitialized_fill_n(Data, Size, Value);
    Count = Size;
  }

  template <typename It,
            typename = typename std::iterator_traits<It>::iterator_category>
  SmallVec(It First, It Last) : SmallVec() {
    assign(First, Last);
  }

  SmallVec(std::initializer_list<T> Init) : SmallVec() {
    assign(Init.begin(), Init.end());
  }

  /// Implicit on purpose; see the file comment.
  SmallVec(std::vector<T> Other) : SmallVec() {
    reserve(Other.size());
    std::uninitialized_move(Other.begin(), Other.end(), Data);
    Count = Other.size();
  }

  SmallVec(const SmallVec &Other) : SmallVec() {
    reserve(Other.Count);
    std::uninitialized_copy(Other.begin(), Other.end(), Data);
    Count = Other.Count;
  }

  SmallVec(SmallVec &&Other) noexcept : SmallVec() { takeFrom(Other); }

  SmallVec &operator=(const SmallVec &Other) {
    if (this == &Other)
      return *this;
    clear();
    reserve(Other.Count);
    std::uninitialized_copy(Other.begin(), Other.end(), Data);
    Count = Other.Count;
    return *this;
  }

  SmallVec &operator=(SmallVec &&Other) noexcept {
    if (this == &Other)
      return *this;
    clear();
    if (!isInline()) {
      deallocate(Data);
      Data = inlineData();
      Cap = N;
    }
    takeFrom(Other);
    return *this;
  }

  ~SmallVec() {
    clear();
    if (!isInline())
      deallocate(Data);
  }

  iterator begin() { return Data; }
  iterator end() { return Data + Count; }
  const_iterator begin() const { return Data; }
  const_iterator end() const { return Data + Count; }
  const_iterator cbegin() const { return Data; }
  const_iterator cend() const { return Data + Count; }

  size_t size() const { return Count; }
  bool empty() const { return Count == 0; }
  size_t capacity() const { return Cap; }
  /// True while the elements still live in the inline buffer.
  bool isInline() const { return Data == inlineData(); }

  T &operator[](size_t I) {
    assert(I < Count && "index out of range");
    return Data[I];
  }
  const T &operator[](size_t I) const {
    assert(I < Count && "index out of range");
    return Data[I];
  }
  T &front() { return (*this)[0]; }
  const T &front() const { return (*this)[0]; }
  T &back() { return (*this)[Count - 1]; }
  const T &back() const { return (*this)[Count - 1]; }
  T *data() { return Data; }
  const T *data() const { return Data; }

  void push_back(const T &Value) { emplace_back(Value); }
  void push_back(T &&Value) { emplace_back(std::move(Value)); }

  template <typename... ArgTs> T &emplace_back(ArgTs &&...Args) {
    if (Count == Cap)
      grow(Cap * 2);
    ::new (static_cast<void *>(Data + Count)) T(std::forward<ArgTs>(Args)...);
    return Data[Count++];
  }

  void pop_back() {
    assert(Count > 0 && "pop_back on empty SmallVec");
    Data[--Count].~T();
  }

  void clear() {
    std::destroy(Data, Data + Count);
    Count = 0;
  }

  void reserve(size_t NewCap) {
    if (NewCap > Cap)
      grow(NewCap);
  }

  void resize(size_t NewSize) {
    if (NewSize < Count) {
      std::destroy(Data + NewSize, Data + Count);
    } else {
      reserve(NewSize);
      std::uninitialized_value_construct(Data + Count, Data + NewSize);
    }
    Count = NewSize;
  }

  void resize(size_t NewSize, const T &Value) {
    if (NewSize < Count) {
      std::destroy(Data + NewSize, Data + Count);
    } else {
      reserve(NewSize);
      std::uninitialized_fill(Data + Count, Data + NewSize, Value);
    }
    Count = NewSize;
  }

  template <typename It,
            typename = typename std::iterator_traits<It>::iterator_category>
  void assign(It First, It Last) {
    clear();
    for (; First != Last; ++First)
      emplace_back(*First);
  }

  void assign(size_t Size, const T &Value) {
    clear();
    reserve(Size);
    std::uninitialized_fill_n(Data, Size, Value);
    Count = Size;
  }

  iterator insert(const_iterator Pos, const T &Value) {
    return emplace(Pos, Value);
  }
  iterator insert(const_iterator Pos, T &&Value) {
    return emplace(Pos, std::move(Value));
  }

  template <typename... ArgTs>
  iterator emplace(const_iterator Pos, ArgTs &&...Args) {
    size_t Index = Pos - Data;
    assert(Index <= Count && "insert position out of range");
    emplace_back(std::forward<ArgTs>(Args)...); // May reallocate.
    std::rotate(Data + Index, Data + Count - 1, Data + Count);
    return Data + Index;
  }

  iterator erase(const_iterator Pos) {
    size_t Index = Pos - Data;
    assert(Index < Count && "erase position out of range");
    std::move(Data + Index + 1, Data + Count, Data + Index);
    pop_back();
    return Data + Index;
  }

  iterator erase(const_iterator First, const_iterator Last) {
    size_t Index = First - Data;
    size_t Len = Last - First;
    assert(Index + Len <= Count && "erase range out of range");
    std::move(Data + Index + Len, Data + Count, Data + Index);
    std::destroy(Data + Count - Len, Data + Count);
    Count -= Len;
    return Data + Index;
  }

  bool operator==(const SmallVec &RHS) const {
    return Count == RHS.Count && std::equal(begin(), end(), RHS.begin());
  }
  bool operator!=(const SmallVec &RHS) const { return !(*this == RHS); }
  bool operator<(const SmallVec &RHS) const {
    return std::lexicographical_compare(begin(), end(), RHS.begin(),
                                        RHS.end());
  }

private:
  T *inlineData() {
    return reinterpret_cast<T *>(InlineStorage);
  }
  const T *inlineData() const {
    return reinterpret_cast<const T *>(InlineStorage);
  }

  static T *allocate(size_t Cap) {
    if constexpr (alignof(T) > __STDCPP_DEFAULT_NEW_ALIGNMENT__)
      return static_cast<T *>(::operator new(Cap * sizeof(T),
                                             std::align_val_t(alignof(T))));
    else
      return static_cast<T *>(::operator new(Cap * sizeof(T)));
  }
  static void deallocate(T *Ptr) {
    if constexpr (alignof(T) > __STDCPP_DEFAULT_NEW_ALIGNMENT__)
      ::operator delete(Ptr, std::align_val_t(alignof(T)));
    else
      ::operator delete(Ptr);
  }

  /// The cold path of every push and reserve.  Out of line, so each of
  /// the many push sites stays a compare and a store (DESIGN.md
  /// decision 9).
  __attribute__((noinline)) void grow(size_t NewCap) {
    NewCap = std::max(NewCap, Cap * 2);
    T *NewData = allocate(NewCap);
    std::uninitialized_move(Data, Data + Count, NewData);
    std::destroy(Data, Data + Count);
    if (!isInline())
      deallocate(Data);
    Data = NewData;
    Cap = NewCap;
  }

  /// Steals Other's heap buffer, or moves its inline elements; leaves
  /// Other empty either way.  Requires *this to be empty and inline.
  void takeFrom(SmallVec &Other) {
    assert(Count == 0 && isInline() && "takeFrom needs a fresh target");
    if (Other.isInline()) {
      std::uninitialized_move(Other.begin(), Other.end(), Data);
      Count = Other.Count;
      Other.clear();
    } else {
      Data = Other.Data;
      Count = Other.Count;
      Cap = Other.Cap;
      Other.Data = Other.inlineData();
      Other.Count = 0;
      Other.Cap = N;
    }
  }

  T *Data;
  size_t Count;
  size_t Cap;
  alignas(T) unsigned char InlineStorage[N * sizeof(T)];
};

} // namespace cai

#endif // CAI_SUPPORT_SMALLVEC_H
