//===- domains/Box.cpp - The interval abstract domain A_I -----------------===//

#include "domains/Box.h"

using namespace anosy;

Box::Box(const std::vector<Interval> &Dims) : Box(Dims.size()) {
  std::copy(Dims.begin(), Dims.end(), data());
  canonicalize();
}

void Box::canonicalize() {
  Interval *D = data();
  Empty = N == 0;
  for (size_t I = 0; I != N && !Empty; ++I)
    Empty = D[I].isEmpty();
  if (Empty)
    std::fill_n(D, N, Interval::empty());
}

Box Box::top(const Schema &S) {
  Box R(S.arity());
  for (size_t I = 0, E = S.arity(); I != E; ++I)
    R.data()[I] = {S.fields()[I].Lo, S.fields()[I].Hi};
  R.canonicalize();
  return R;
}

Box Box::bottom(size_t Arity) {
  assert(Arity > 0 && "secrets have at least one field");
  Box R(Arity);
  std::fill_n(R.data(), Arity, Interval::empty());
  return R;
}

Box Box::point(const Point &P) {
  Box R(P.size());
  for (size_t I = 0, E = P.size(); I != E; ++I)
    R.data()[I] = Interval::point(P[I]);
  R.canonicalize();
  return R;
}

Box Box::withDim(size_t I, Interval NewDim) const {
  assert(I < N && "dimension out of range");
  Box R(*this);
  R.data()[I] = NewDim;
  // A non-empty box with a non-empty new dimension stays non-empty; every
  // other case (an empty box stays empty) goes through canonicalize.
  if (Empty || NewDim.isEmpty())
    R.canonicalize();
  return R;
}

bool Box::contains(const Point &P) const {
  if (Empty || P.size() != N)
    return false;
  const Interval *D = data();
  for (size_t I = 0; I != N; ++I)
    if (!D[I].contains(P[I]))
      return false;
  return true;
}

bool Box::subsetOf(const Box &O) const {
  if (Empty)
    return true;
  if (O.Empty || O.N != N)
    return false;
  const Interval *D = data(), *OD = O.data();
  for (size_t I = 0; I != N; ++I)
    if (!D[I].subsetOf(OD[I]))
      return false;
  return true;
}

Box Box::intersect(const Box &O) const {
  assert(N == O.N && "arity mismatch");
  if (Empty || O.Empty)
    return bottom(N);
  Box R(N);
  const Interval *D = data(), *OD = O.data();
  for (size_t I = 0; I != N; ++I)
    R.data()[I] = D[I].intersect(OD[I]);
  R.canonicalize();
  return R;
}

bool Box::intersects(const Box &O) const {
  assert(N == O.N && "arity mismatch");
  if (Empty || O.Empty)
    return false;
  const Interval *D = data(), *OD = O.data();
  for (size_t I = 0; I != N; ++I)
    if (std::max(D[I].Lo, OD[I].Lo) > std::min(D[I].Hi, OD[I].Hi))
      return false;
  return true;
}

Box Box::hull(const Box &O) const {
  assert(N == O.N && "arity mismatch");
  if (Empty)
    return O;
  if (O.Empty)
    return *this;
  Box R(N);
  const Interval *D = data(), *OD = O.data();
  for (size_t I = 0; I != N; ++I)
    R.data()[I] = D[I].hull(OD[I]);
  R.canonicalize();
  return R;
}

BigCount Box::volume() const {
  if (Empty)
    return BigCount();
  BigCount V(1);
  const Interval *D = data();
  for (size_t I = 0; I != N; ++I)
    V = V * D[I].width();
  return V;
}

bool Box::isUnit() const {
  if (Empty)
    return false;
  const Interval *D = data();
  for (size_t I = 0; I != N; ++I)
    if (D[I].Lo != D[I].Hi)
      return false;
  return true;
}

Point Box::center() const {
  assert(!Empty && "center of empty box");
  Point P;
  P.reserve(N);
  const Interval *D = data();
  for (size_t I = 0; I != N; ++I)
    P.push_back(D[I].midpoint());
  return P;
}

size_t Box::widestDim() const {
  assert(!Empty && "widestDim of empty box");
  // Hi - Lo in uint64 is width - 1, exact for every interval (the full
  // range gives 2^64 - 1), so it orders dimensions like Interval::width()
  // without building a BigCount per dimension.
  const Interval *D = data();
  auto Span = [](const Interval &I) {
    return static_cast<uint64_t>(I.Hi) - static_cast<uint64_t>(I.Lo);
  };
  size_t Best = 0;
  uint64_t BestSpan = Span(D[0]);
  for (size_t I = 1; I != N; ++I) {
    uint64_t S = Span(D[I]);
    if (BestSpan < S) {
      Best = I;
      BestSpan = S;
    }
  }
  return Best;
}

std::pair<Box, Box> Box::splitAt(size_t Dim) const {
  assert(!Empty && "splitting empty box");
  const Interval &I = dim(Dim);
  assert(I.Lo < I.Hi && "splitting a unit dimension");
  int64_t Mid = I.midpoint();
  return {withDim(Dim, {I.Lo, Mid}), withDim(Dim, {Mid + 1, I.Hi})};
}

bool Box::operator==(const Box &O) const {
  if (N != O.N)
    return false;
  if (Empty && O.Empty)
    return true;
  if (Empty != O.Empty)
    return false;
  const Interval *D = data(), *OD = O.data();
  for (size_t I = 0; I != N; ++I)
    if (D[I] != OD[I])
      return false;
  return true;
}

std::string Box::str() const {
  if (Empty)
    return "<empty/" + std::to_string(N) + ">";
  std::string Out;
  const Interval *D = data();
  for (size_t I = 0; I != N; ++I) {
    if (I != 0)
      Out += " x ";
    Out += D[I].str();
  }
  return Out;
}
