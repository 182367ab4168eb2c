//===- cache/QueryKey.cpp - Canonical cross-process query identity --------===//
//
// Part of anosy-cpp (see DESIGN.md).
//
//===----------------------------------------------------------------------===//

#include "cache/QueryKey.h"

#include "expr/Simplify.h"
#include "support/Checksum.h"

#include <cassert>
#include <map>

namespace anosy {

namespace {

/// Records each field's first occurrence in a deterministic pre-order
/// walk of \p E into \p Order.
void collectFirstUse(const Expr &E, std::vector<bool> &Seen,
                     std::vector<unsigned> &Order) {
  if (E.kind() == ExprKind::FieldRef) {
    unsigned I = E.fieldIndex();
    assert(I < Seen.size() && "field index outside schema");
    if (!Seen[I]) {
      Seen[I] = true;
      Order.push_back(I);
    }
    return;
  }
  for (const ExprRef &Op : E.operands())
    collectFirstUse(*Op, Seen, Order);
}

/// Rebuilds \p E with every FieldRef index mapped through \p OldToCanon.
/// Uses the raw factory so the structure is preserved exactly (the body is
/// already in simplifier normal form; re-folding here could diverge from
/// the tree the first-use order was computed on).
ExprRef remapFields(const ExprRef &E,
                    const std::vector<unsigned> &OldToCanon,
                    std::map<const Expr *, ExprRef> &Memo) {
  auto It = Memo.find(E.get());
  if (It != Memo.end())
    return It->second;
  ExprRef Out;
  if (E->kind() == ExprKind::FieldRef) {
    Out = ExprFactory::make(ExprKind::FieldRef,
                            int64_t(OldToCanon[E->fieldIndex()]), CmpOp::EQ,
                            {});
  } else {
    std::vector<ExprRef> Ops;
    Ops.reserve(E->numOperands());
    bool Changed = false;
    for (const ExprRef &Op : E->operands()) {
      ExprRef R = remapFields(Op, OldToCanon, Memo);
      Changed = Changed || R.get() != Op.get();
      Ops.push_back(std::move(R));
    }
    // Only operator nodes can change (leaf payloads carry no fields), so
    // IntValue is irrelevant on this path.
    Out = Changed ? ExprFactory::make(E->kind(), 0,
                                      E->kind() == ExprKind::Cmp ? E->cmpOp()
                                                                 : CmpOp::EQ,
                                      std::move(Ops))
                  : E;
  }
  Memo.emplace(E.get(), Out);
  return Out;
}

} // namespace

CanonicalQuery canonicalizeQuery(const Schema &S, const ExprRef &Body,
                                 const std::string &DomainTag,
                                 unsigned PowersetK) {
  CanonicalQuery Key;
  Key.DomainTag = DomainTag;
  Key.PowersetK = PowersetK;

  ExprRef Simplified = simplify(Body);

  // Canonical field order: first use in the simplified body, then unused
  // fields in declaration order (so the prior still covers every field).
  const size_t N = S.arity();
  std::vector<bool> Seen(N, false);
  Key.FieldPerm.reserve(N);
  collectFirstUse(*Simplified, Seen, Key.FieldPerm);
  for (unsigned I = 0; I != N; ++I)
    if (!Seen[I])
      Key.FieldPerm.push_back(I);

  std::vector<unsigned> OldToCanon(N, 0);
  for (unsigned Canon = 0; Canon != N; ++Canon)
    OldToCanon[Key.FieldPerm[Canon]] = Canon;

  std::map<const Expr *, ExprRef> Memo;
  Key.CanonBody = remapFields(Simplified, OldToCanon, Memo);

  std::vector<Field> CanonFields;
  CanonFields.reserve(N);
  for (unsigned Canon = 0; Canon != N; ++Canon) {
    const Field &Orig = S.field(Key.FieldPerm[Canon]);
    CanonFields.push_back({"f" + std::to_string(Canon), Orig.Lo, Orig.Hi});
  }
  // The name must survive a KB serialize/parse round trip, so it has to
  // lex as an identifier.
  Key.CanonSchema = Schema("AnosyCache", std::move(CanonFields));

  // Serialized canonical form: the prior-independent prefix first (the
  // family), then the prior. The schema-free $i rendering of CanonBody is
  // exactly the canonical field numbering.
  std::string Text = "anosy-cache-key v1\n";
  Text += "domain " + Key.DomainTag + " k " + std::to_string(PowersetK) + "\n";
  Text += "arity " + std::to_string(N) + "\n";
  Text += "query " + Key.CanonBody->str() + "\n";
  Key.FamilyLen = Text.size();
  Text += "prior";
  for (unsigned Canon = 0; Canon != N; ++Canon) {
    const Field &F = Key.CanonSchema.field(Canon);
    Text += " [" + std::to_string(F.Lo) + ", " + std::to_string(F.Hi) + "]";
  }
  Text += "\n";
  Key.KeyText = std::move(Text);
  Key.Hash = fnv1a64(Key.KeyText);
  return Key;
}

uint64_t familyHash(const CanonicalQuery &Key) {
  return fnv1a64(std::string_view(Key.KeyText).substr(0, Key.FamilyLen));
}

Box permuteToCanonical(const Box &B, const std::vector<unsigned> &Perm) {
  assert(B.arity() == Perm.size() && "permutation arity mismatch");
  std::vector<Interval> Dims;
  Dims.reserve(Perm.size());
  for (unsigned Canon = 0; Canon != Perm.size(); ++Canon)
    Dims.push_back(B.dim(Perm[Canon]));
  return Box(Dims);
}

Box permuteFromCanonical(const Box &B, const std::vector<unsigned> &Perm) {
  assert(B.arity() == Perm.size() && "permutation arity mismatch");
  std::vector<Interval> Dims(Perm.size(), Interval::empty());
  for (unsigned Canon = 0; Canon != Perm.size(); ++Canon)
    Dims[Perm[Canon]] = B.dim(Canon);
  return Box(Dims);
}

PowerBox permuteToCanonical(const PowerBox &P,
                            const std::vector<unsigned> &Perm) {
  std::vector<Box> Inc, Exc;
  Inc.reserve(P.includes().size());
  Exc.reserve(P.excludes().size());
  for (const Box &B : P.includes())
    Inc.push_back(permuteToCanonical(B, Perm));
  for (const Box &B : P.excludes())
    Exc.push_back(permuteToCanonical(B, Perm));
  return PowerBox(Perm.size(), std::move(Inc), std::move(Exc));
}

PowerBox permuteFromCanonical(const PowerBox &P,
                              const std::vector<unsigned> &Perm) {
  std::vector<Box> Inc, Exc;
  Inc.reserve(P.includes().size());
  Exc.reserve(P.excludes().size());
  for (const Box &B : P.includes())
    Inc.push_back(permuteFromCanonical(B, Perm));
  for (const Box &B : P.excludes())
    Exc.push_back(permuteFromCanonical(B, Perm));
  return PowerBox(Perm.size(), std::move(Inc), std::move(Exc));
}

Box boxMinusOuter(const Box &A, const Box &B) {
  const size_t N = A.arity();
  assert(B.arity() == N && "arity mismatch");
  if (A.isEmpty() || !A.intersects(B))
    return A;
  if (A.subsetOf(B))
    return Box::bottom(N);

  // Count dimensions where B covers A; a dimension d can be shrunk when
  // the other N-1 are all covered (every point of A \ B then leaves B
  // along d itself, so A \ B keeps no point in the removed slab).
  size_t Covered = 0;
  std::vector<bool> CoversDim(N, false);
  for (size_t D = 0; D != N; ++D) {
    CoversDim[D] = A.dim(D).subsetOf(B.dim(D));
    Covered += CoversDim[D] ? 1 : 0;
  }
  Box Out = A;
  for (size_t D = 0; D != N; ++D) {
    if (Covered - (CoversDim[D] ? 1 : 0) != N - 1)
      continue;
    const Interval &Ad = A.dim(D);
    const Interval &Bd = B.dim(D);
    int64_t Lo = Ad.Lo;
    int64_t Hi = Ad.Hi;
    // Not a full cover (handled above), so exactly one end can clip.
    if (Bd.Lo <= Lo && Bd.Hi >= Lo)
      Lo = Bd.Hi + 1;
    else if (Bd.Hi >= Hi && Bd.Lo <= Hi)
      Hi = Bd.Lo - 1;
    Out = Out.withDim(D, Interval{Lo, Hi});
  }
  return Out;
}

} // namespace anosy
