//===- domains/Octagon.cpp - The octagon abstract domain ------------------===//

#include "domains/Octagon.h"

#include <algorithm>

using namespace anosy;

namespace {

/// Saturating addition of two finite matrix entries. Clamping high to Inf
/// weakens the constraint to "none" and clamping low to INT64_MIN keeps a
/// larger (weaker) bound than the true sum — both directions are sound.
int64_t satAdd(int64_t A, int64_t B) {
  __int128 R = static_cast<__int128>(A) + B;
  if (R >= Octagon::Inf)
    return Octagon::Inf;
  if (R < INT64_MIN)
    return INT64_MIN;
  return static_cast<int64_t>(R);
}

int64_t floorDiv2(int64_t A) { return A >= 0 ? A / 2 : -((-A + 1) / 2); }

/// 2*C saturated to Inf/−Inf-ish; used when injecting unary bounds.
int64_t twice(int64_t C) {
  if (C > (Octagon::Inf - 1) / 2)
    return Octagon::Inf;
  if (C < INT64_MIN / 2)
    return INT64_MIN;
  return 2 * C;
}

} // namespace

Octagon::Octagon(size_t Arity, bool MakeEmpty)
    : N(Arity), Empty(MakeEmpty), ClosedForm(true) {
  // Top (all-Inf off-diagonal, zero diagonal) and bottom are both
  // trivially in tight closed form.
  if (!Empty) {
    M.assign(4 * N * N, Inf);
    for (size_t I = 0; I != 2 * N; ++I)
      at(I, I) = 0;
  }
}

Octagon Octagon::top(size_t Arity) { return Octagon(Arity, false); }

Octagon Octagon::bottom(size_t Arity) { return Octagon(Arity, true); }

Octagon Octagon::fromBox(const Box &B) {
  if (B.isEmpty())
    return bottom(B.arity());
  Octagon O = top(B.arity());
  for (size_t K = 0; K != B.arity(); ++K) {
    O.addUpperBound(K, B.dim(K).Hi);
    O.addLowerBound(K, B.dim(K).Lo);
  }
  O.close();
  return O;
}

void Octagon::markEmpty() {
  Empty = true;
  ClosedForm = true;
  M.clear();
}

bool Octagon::tighten(size_t I, size_t J, int64_t C) {
  if (Empty)
    return false;
  bool Changed = false;
  if (C < at(I, J)) {
    at(I, J) = C;
    Changed = true;
  }
  size_t MI = J ^ 1, MJ = I ^ 1; // coherent mirror entry
  if (C < at(MI, MJ)) {
    at(MI, MJ) = C;
    Changed = true;
  }
  if (Changed)
    ClosedForm = false;
  return Changed;
}

bool Octagon::addUpperBound(size_t I, int64_t C) {
  // x_i ≤ C  ⟺  V_{2i} − V_{2i+1} = 2x_i ≤ 2C.
  return tighten(node(I, false), node(I, true), twice(C));
}

bool Octagon::addLowerBound(size_t I, int64_t C) {
  // x_i ≥ C  ⟺  −2x_i ≤ −2C (saturated; clamping high drops the
  // constraint, clamping low keeps a weaker one — both sound).
  __int128 V = -2 * static_cast<__int128>(C);
  int64_t E = V >= Inf ? Inf
                       : (V < INT64_MIN ? INT64_MIN : static_cast<int64_t>(V));
  return tighten(node(I, true), node(I, false), E);
}

bool Octagon::addSumUpper(size_t I, size_t J, int64_t C) {
  if (I == J) {
    // 2x_i ≤ C directly bounds the unary entry.
    return tighten(node(I, false), node(I, true), C);
  }
  // x_i + x_j ≤ C  ⟺  V_{2i} − V_{2j+1} ≤ C.
  return tighten(node(I, false), node(J, true), C);
}

bool Octagon::addSumLower(size_t I, size_t J, int64_t C) {
  int64_t Neg = C == INT64_MIN ? Inf : -C;
  if (I == J) {
    return tighten(node(I, true), node(I, false), Neg);
  }
  // x_i + x_j ≥ C  ⟺  −x_i − x_j ≤ −C  ⟺  V_{2i+1} − V_{2j} ≤ −C.
  return tighten(node(I, true), node(J, false), Neg);
}

bool Octagon::addDiffUpper(size_t I, size_t J, int64_t C) {
  if (I == J) {
    if (C < 0 && !Empty) {
      markEmpty(); // x_i − x_i ≤ C < 0 is unsatisfiable.
      return true;
    }
    return false;
  }
  // x_i − x_j ≤ C  ⟺  V_{2i} − V_{2j} ≤ C.
  return tighten(node(I, false), node(J, false), C);
}

void Octagon::close() {
  ClosedForm = true;
  if (Empty || N == 0)
    return;
  const size_t D = 2 * N;

  // Shortest paths (Floyd–Warshall) over the constraint graph.
  for (size_t K = 0; K != D; ++K)
    for (size_t I = 0; I != D; ++I) {
      int64_t IK = at(I, K);
      if (IK == Inf)
        continue;
      for (size_t J = 0; J != D; ++J) {
        int64_t KJ = at(K, J);
        if (KJ == Inf)
          continue;
        int64_t S = satAdd(IK, KJ);
        if (S < at(I, J))
          at(I, J) = S;
      }
    }

  // A negative cycle means no rational (hence no integer) point.
  for (size_t I = 0; I != D; ++I) {
    if (at(I, I) < 0) {
      markEmpty();
      return;
    }
    at(I, I) = 0;
  }

  // Integer tightening: V_i − V_{i^1} = ±2x is even, so its bound may be
  // rounded down to the nearest even value.
  for (size_t I = 0; I != D; ++I)
    if (at(I, I ^ 1) != Inf)
      at(I, I ^ 1) = 2 * floorDiv2(at(I, I ^ 1));

  // Emptiness over the integers: upper < lower on some field.
  for (size_t I = 0; I != D; I += 2) {
    int64_t A = at(I, I ^ 1), B = at(I ^ 1, I);
    if (A != Inf && B != Inf &&
        static_cast<__int128>(A) + B < 0) {
      markEmpty();
      return;
    }
  }

  // Strengthening: V_i − V_j ≤ (V_i−V_{i^1})/2 + (V_{j^1}−V_j)/2; both
  // halves are exact after tightening (the bounds are even).
  for (size_t I = 0; I != D; ++I) {
    int64_t AI = at(I, I ^ 1);
    if (AI == Inf)
      continue;
    for (size_t J = 0; J != D; ++J) {
      int64_t BJ = at(J ^ 1, J);
      if (BJ == Inf)
        continue;
      int64_t S = satAdd(AI / 2, BJ / 2);
      if (S < at(I, J))
        at(I, J) = S;
    }
  }
}

Box Octagon::toBox() const {
  if (Empty)
    return Box::bottom(N);
  std::vector<Interval> Dims;
  Dims.reserve(N);
  for (size_t K = 0; K != N; ++K) {
    int64_t UB = at(node(K, false), node(K, true));
    int64_t LB = at(node(K, true), node(K, false));
    int64_t Hi = UB == Inf ? INT64_MAX : floorDiv2(UB);
    int64_t Lo = LB == Inf ? INT64_MIN : -floorDiv2(LB);
    Dims.push_back({Lo, Hi});
  }
  return Box(Dims);
}

bool Octagon::contains(const Point &P) const {
  if (Empty)
    return false;
  assert(P.size() == N && "point arity mismatch");
  auto Val = [&](size_t I) -> __int128 {
    __int128 V = P[I / 2];
    return (I & 1) != 0 ? -V : V;
  };
  for (size_t I = 0; I != 2 * N; ++I)
    for (size_t J = 0; J != 2 * N; ++J)
      if (at(I, J) != Inf && Val(I) - Val(J) > at(I, J))
        return false;
  return true;
}

Octagon Octagon::meet(const Octagon &O) const {
  assert(N == O.N && "octagon arity mismatch");
  if (Empty || O.Empty)
    return bottom(N);
  Octagon R = *this;
  for (size_t I = 0; I != M.size(); ++I)
    R.M[I] = std::min(R.M[I], O.M[I]);
  R.close();
  return R;
}

Octagon Octagon::join(const Octagon &O) const {
  assert(N == O.N && "octagon arity mismatch");
  if (Empty)
    return O;
  if (O.Empty)
    return *this;
  Octagon R = *this;
  for (size_t I = 0; I != M.size(); ++I)
    R.M[I] = std::max(R.M[I], O.M[I]);
  // Elementwise max of tightly closed matrices is tightly closed (max is
  // sub-additive over the triangle and strengthening inequalities and
  // keeps even unary bounds even), so the cubic re-close only runs when
  // a raw operand makes it necessary.
  if (ClosedForm && O.ClosedForm)
    R.ClosedForm = true;
  else
    R.close();
  return R;
}

bool Octagon::subsetOf(const Octagon &O) const {
  assert(N == O.N && "octagon arity mismatch");
  if (Empty)
    return true;
  if (O.Empty)
    return false;
  for (size_t I = 0; I != M.size(); ++I)
    if (M[I] > O.M[I])
      return false;
  return true;
}

bool Octagon::operator==(const Octagon &O) const {
  if (N != O.N)
    return false;
  if (Empty || O.Empty)
    return Empty == O.Empty;
  return M == O.M;
}

namespace {

/// BigCount of a non-negative 128-bit value, saturating via BigCount's own
/// sticky arithmetic when it exceeds the representable range.
BigCount ofU128(unsigned __int128 V) {
  constexpr unsigned __int128 I64Max =
      static_cast<unsigned __int128>(INT64_MAX);
  if (V <= I64Max)
    return BigCount(static_cast<int64_t>(V));
  constexpr unsigned __int128 Low = (static_cast<unsigned __int128>(1) << 62);
  return ofU128(V >> 62) * BigCount(static_cast<int64_t>(1) << 62) +
         BigCount(static_cast<int64_t>(V & (Low - 1)));
}

} // namespace

BigCount Octagon::pairCount(size_t SF, size_t OF) const {
  // Unary bounds of both fields; an unbounded projection has no finite
  // count.
  int64_t SUB = at(node(SF, false), node(SF, true));
  int64_t SLB = at(node(SF, true), node(SF, false));
  int64_t OUB = at(node(OF, false), node(OF, true));
  int64_t OLB = at(node(OF, true), node(OF, false));
  if (SUB == Inf || SLB == Inf || OUB == Inf || OLB == Inf)
    return BigCount::saturated();
  int64_t SLo = -floorDiv2(SLB), SHi = floorDiv2(SUB);
  int64_t OLo = -floorDiv2(OLB), OHi = floorDiv2(OUB);
  if (SLo > SHi || OLo > OHi)
    return BigCount(0);

  // Cross constraints relating the swept field s and the other field o.
  int64_t DSO = at(node(SF, false), node(OF, false)); // x_s − x_o ≤ DSO
  int64_t DOS = at(node(OF, false), node(SF, false)); // x_o − x_s ≤ DOS
  int64_t Sum = at(node(SF, false), node(OF, true));  // x_s + x_o ≤ Sum
  int64_t NSum = at(node(SF, true), node(OF, false)); // −x_s − x_o ≤ NSum

  // For a fixed s = V the admissible o form one interval
  //   [max(OLo, V − DSO, −NSum − V), min(OHi, V + DOS, Sum − V)],
  // so len(V) = min over upper/lower pairs of u(V) − l(V) + 1 is a
  // concave piecewise-linear function (slopes in −2..2) and the count is
  // Σ_V max(0, len(V)). Summed segment-wise in closed form: between
  // consecutive breakpoints (floors and ceilings of the pairwise line
  // crossings and of each line's zero crossing) one line is minimal with
  // constant sign, so each segment is an arithmetic series — O(1) per
  // segment instead of a sweep over the field's width.
  struct Line {
    __int128 A; ///< len_k(V) = A + B·V
    int B;
  };
  Line Uppers[3], Lowers[3];
  size_t NU = 0, NL = 0;
  Uppers[NU++] = {OHi, 0};
  if (DOS != Inf)
    Uppers[NU++] = {DOS, 1};
  if (Sum != Inf)
    Uppers[NU++] = {Sum, -1};
  Lowers[NL++] = {OLo, 0};
  if (DSO != Inf)
    Lowers[NL++] = {-static_cast<__int128>(DSO), 1};
  if (NSum != Inf)
    Lowers[NL++] = {-static_cast<__int128>(NSum), -1};
  Line Lens[9];
  size_t NLen = 0;
  for (size_t U = 0; U != NU; ++U)
    for (size_t L = 0; L != NL; ++L)
      Lens[NLen++] = {Uppers[U].A - Lowers[L].A + 1,
                      Uppers[U].B - Lowers[L].B};

  std::vector<int64_t> Bks{SLo, SHi};
  auto AddCrossing = [&](__int128 Num, __int128 Den) {
    if (Den < 0) {
      Num = -Num;
      Den = -Den;
    }
    __int128 Q = Num / Den;
    if (Num % Den != 0 && Num < 0)
      --Q; // floor division
    for (__int128 C : {Q, Q + 1})
      if (C >= SLo && C <= SHi)
        Bks.push_back(static_cast<int64_t>(C));
  };
  for (size_t I = 0; I != NLen; ++I) {
    if (Lens[I].B != 0)
      AddCrossing(-Lens[I].A, Lens[I].B);
    for (size_t J = I + 1; J != NLen; ++J)
      if (Lens[I].B != Lens[J].B)
        AddCrossing(Lens[J].A - Lens[I].A, Lens[I].B - Lens[J].B);
  }
  std::sort(Bks.begin(), Bks.end());
  Bks.erase(std::unique(Bks.begin(), Bks.end()), Bks.end());

  auto LenAt = [&](int64_t V) {
    __int128 Best = Lens[0].A + static_cast<__int128>(Lens[0].B) * V;
    for (size_t K = 1; K != NLen; ++K) {
      __int128 C = Lens[K].A + static_cast<__int128>(Lens[K].B) * V;
      if (C < Best)
        Best = C;
    }
    return Best;
  };

  BigCount Total;
  for (size_t K = 0; K != Bks.size(); ++K) {
    int64_t P = Bks[K];
    int64_t Q = K + 1 != Bks.size() ? Bks[K + 1] - 1 : SHi;
    if (Q < P)
      continue;
    __int128 LP = LenAt(P), LQ = LenAt(Q);
    if (LP <= 0 && LQ <= 0)
      continue; // no interior sign change: the whole segment is empty
    if (LP < 0 || LQ < 0) {
      // A sign change inside a segment would mean a zero crossing that is
      // not a breakpoint — impossible by construction. Saturate rather
      // than risk an under-count if the impossible happens.
      return BigCount::saturated();
    }
    unsigned __int128 N = static_cast<unsigned __int128>(Q - P) + 1;
    unsigned __int128 SumLen = static_cast<unsigned __int128>(LP + LQ);
    // (LP + LQ) · N is even (arithmetic series over N integers).
    constexpr unsigned __int128 Cap = static_cast<unsigned __int128>(1)
                                      << 126;
    if (SumLen != 0 && N > Cap / SumLen)
      return BigCount::saturated();
    Total = Total + ofU128(SumLen * N / 2);
  }
  return Total;
}

BigCount Octagon::cardinalityBound() const {
  if (Empty)
    return BigCount(0);
  Box B = toBox();
  BigCount Best = B.volume();
  for (size_t I = 0; I != N; ++I)
    for (size_t J = I + 1; J != N; ++J) {
      bool Rel = at(node(I, false), node(J, false)) != Inf ||
                 at(node(J, false), node(I, false)) != Inf ||
                 at(node(I, false), node(J, true)) != Inf ||
                 at(node(I, true), node(J, false)) != Inf;
      if (!Rel)
        continue;
      // Exact count of the (I, J) projection.
      BigCount PC = pairCount(I, J);
      if (PC.isSaturated())
        continue;
      // The octagon sits inside projection(I,J) × box of the rest.
      BigCount Cand = PC;
      for (size_t K = 0; K != N; ++K)
        if (K != I && K != J)
          Cand = Cand * B.dim(K).width();
      if (Cand < Best)
        Best = Cand;
    }
  return Best;
}

std::string Octagon::str() const {
  if (Empty)
    return "<empty/" + std::to_string(N) + ">";
  Box B = toBox();
  std::string Out = B.str();
  std::string Rel;
  auto Append = [&Rel](std::string C) {
    if (!Rel.empty())
      Rel += ", ";
    Rel += std::move(C);
  };
  auto Name = [](size_t K) { return "x" + std::to_string(K); };
  for (size_t I = 0; I != N; ++I)
    for (size_t J = I + 1; J != N; ++J) {
      __int128 Lo1 = B.dim(I).Lo, Hi1 = B.dim(I).Hi;
      __int128 Lo2 = B.dim(J).Lo, Hi2 = B.dim(J).Hi;
      int64_t Diff = at(node(I, false), node(J, false));
      if (Diff != Inf && Diff < Hi1 - Lo2)
        Append(Name(I) + "-" + Name(J) + "<=" + std::to_string(Diff));
      int64_t RDiff = at(node(J, false), node(I, false));
      if (RDiff != Inf && RDiff < Hi2 - Lo1)
        Append(Name(I) + "-" + Name(J) +
               ">=" + std::to_string(RDiff == INT64_MIN ? INT64_MAX : -RDiff));
      int64_t Sum = at(node(I, false), node(J, true));
      if (Sum != Inf && Sum < Hi1 + Hi2)
        Append(Name(I) + "+" + Name(J) + "<=" + std::to_string(Sum));
      int64_t NSum = at(node(I, true), node(J, false));
      if (NSum != Inf && NSum < -Lo1 - Lo2)
        Append(Name(I) + "+" + Name(J) +
               ">=" + std::to_string(NSum == INT64_MIN ? INT64_MAX : -NSum));
    }
  if (!Rel.empty())
    Out += " | " + Rel;
  return Out;
}
