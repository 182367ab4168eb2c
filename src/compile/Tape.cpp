//===- compile/Tape.cpp - Compiled query bytecode -------------------------===//
//
// The one-shot Expr→tape compiler and the interpreter. See Tape.h for the
// execution model.
//
//===----------------------------------------------------------------------===//

#include "compile/Tape.h"

#include "domains/IntervalArith.h"

#include <unordered_map>

using namespace anosy;
using namespace anosy::iarith;

//===----------------------------------------------------------------------===//
// Compiler
//===----------------------------------------------------------------------===//

namespace anosy {

/// Compiles one expression with stack-discipline register allocation: an
/// integer-sorted subterm at operand depth d lands in int register d, a
/// boolean one in tribool register d. Binary ops evaluate their left
/// operand at depth d and their right at d+1, so register counts equal
/// the operand-stack depth of the expression — no liveness analysis
/// needed, and the tape recomputes shared DAG nodes exactly as the tree
/// walk does (bit-identical node semantics, no CSE).
class TapeCompiler {
public:
  TapeRef compile(const Expr &E) {
    auto T = std::shared_ptr<Tape>(new Tape());
    Out = T.get();
    Out->ResultIsBool = E.isBoolSorted();
    if (E.isBoolSorted())
      compileBool(E, 0, 0);
    else
      compileInt(E, 0, 0);
    if (Failed)
      return nullptr;
    Out->NumIntRegs = MaxIntReg;
    Out->NumBoolRegs = MaxBoolReg;
    return T;
  }

private:
  // Register indices are uint16; leave headroom so Id + 1 never wraps.
  static constexpr uint32_t RegLimit = 0xFFF0;

  Tape *Out = nullptr;
  bool Failed = false;
  uint32_t MaxIntReg = 0;
  uint32_t MaxBoolReg = 0;
  std::unordered_map<int64_t, int32_t> PoolIndex;

  size_t emit(TapeOp Op, uint32_t Dst, uint32_t A, uint32_t B, int32_t Imm) {
    Out->Insns.push_back({Op, static_cast<uint16_t>(Dst),
                          static_cast<uint16_t>(A), static_cast<uint16_t>(B),
                          Imm});
    return Out->Insns.size() - 1;
  }

  void patchJump(size_t At) {
    Out->Insns[At].Imm = static_cast<int32_t>(Out->Insns.size());
  }

  int32_t poolIndex(int64_t V) {
    auto [It, Inserted] =
        PoolIndex.try_emplace(V, static_cast<int32_t>(Out->Pool.size()));
    if (Inserted)
      Out->Pool.push_back(V);
    return It->second;
  }

  bool useIntReg(uint32_t Id) {
    if (Id >= RegLimit) {
      Failed = true;
      return false;
    }
    MaxIntReg = std::max(MaxIntReg, Id + 1);
    return true;
  }

  bool useBoolReg(uint32_t Bd) {
    if (Bd >= RegLimit) {
      Failed = true;
      return false;
    }
    MaxBoolReg = std::max(MaxBoolReg, Bd + 1);
    return true;
  }

  /// Emits code leaving the value of integer-sorted \p E in int[Id].
  /// \p Bd is the first free tribool register (for nested conditions).
  void compileInt(const Expr &E, uint32_t Id, uint32_t Bd) {
    if (Failed || !useIntReg(Id))
      return;
    switch (E.kind()) {
    case ExprKind::IntConst:
      emit(TapeOp::LoadConst, Id, 0, 0, poolIndex(E.intValue()));
      return;
    case ExprKind::FieldRef:
      emit(TapeOp::LoadField, Id, 0, 0,
           static_cast<int32_t>(E.fieldIndex()));
      return;
    case ExprKind::Neg:
      compileInt(*E.operand(0), Id, Bd);
      emit(TapeOp::NegI, Id, Id, 0, 0);
      return;
    case ExprKind::Abs:
      compileInt(*E.operand(0), Id, Bd);
      emit(TapeOp::AbsI, Id, Id, 0, 0);
      return;
    case ExprKind::Add:
    case ExprKind::Sub:
    case ExprKind::Mul:
    case ExprKind::Min:
    case ExprKind::Max: {
      compileInt(*E.operand(0), Id, Bd);
      compileInt(*E.operand(1), Id + 1, Bd);
      TapeOp Op = E.kind() == ExprKind::Add   ? TapeOp::AddI
                  : E.kind() == ExprKind::Sub ? TapeOp::SubI
                  : E.kind() == ExprKind::Mul ? TapeOp::MulI
                  : E.kind() == ExprKind::Min ? TapeOp::MinI
                                              : TapeOp::MaxI;
      emit(Op, Id, Id, Id + 1, 0);
      return;
    }
    case ExprKind::IntIte: {
      // Condition into tri[Bd]; arms compiled with conditions at Bd + 1
      // so nested ites cannot clobber this one's condition register.
      if (!useBoolReg(Bd) || !useIntReg(Id + 1))
        return;
      compileBool(*E.operand(0), Id, Bd);
      size_t ToElse = emit(TapeOp::JmpIfFalse, 0, Bd, 0, 0);
      compileInt(*E.operand(1), Id, Bd + 1);
      size_t ToEnd = emit(TapeOp::JmpIfTrue, 0, Bd, 0, 0);
      patchJump(ToElse);
      compileInt(*E.operand(2), Id + 1, Bd + 1);
      patchJump(ToEnd);
      emit(TapeOp::Sel, Id, Id, Id + 1, static_cast<int32_t>(Bd));
      return;
    }
    case ExprKind::BoolConst:
    case ExprKind::Cmp:
    case ExprKind::Not:
    case ExprKind::And:
    case ExprKind::Or:
    case ExprKind::Implies:
      break;
    }
    ANOSY_UNREACHABLE("compileInt on boolean-sorted expression");
  }

  /// Emits code leaving the truth of boolean-sorted \p E in tri[Bd].
  /// \p Id is the first free interval register.
  void compileBool(const Expr &E, uint32_t Id, uint32_t Bd) {
    if (Failed || !useBoolReg(Bd))
      return;
    switch (E.kind()) {
    case ExprKind::BoolConst:
      emit(TapeOp::LoadBool, Bd, 0, 0, E.boolValue() ? 1 : 0);
      return;
    case ExprKind::Cmp:
      compileInt(*E.operand(0), Id, Bd);
      compileInt(*E.operand(1), Id + 1, Bd);
      emit(TapeOp::CmpII, Bd, Id, Id + 1,
           static_cast<int32_t>(E.cmpOp()));
      return;
    case ExprKind::Not:
      compileBool(*E.operand(0), Id, Bd);
      emit(TapeOp::NotB, Bd, Bd, 0, 0);
      return;
    case ExprKind::And: {
      // Short-circuit: when the left side is already False the right
      // side is skipped; AndB then folds in whatever tri[Bd + 1] holds,
      // which cannot flip a False (Kleene absorption).
      if (!useBoolReg(Bd + 1))
        return;
      compileBool(*E.operand(0), Id, Bd);
      size_t Skip = emit(TapeOp::JmpIfFalse, 0, Bd, 0, 0);
      compileBool(*E.operand(1), Id, Bd + 1);
      patchJump(Skip);
      emit(TapeOp::AndB, Bd, Bd, Bd + 1, 0);
      return;
    }
    case ExprKind::Or: {
      if (!useBoolReg(Bd + 1))
        return;
      compileBool(*E.operand(0), Id, Bd);
      size_t Skip = emit(TapeOp::JmpIfTrue, 0, Bd, 0, 0);
      compileBool(*E.operand(1), Id, Bd + 1);
      patchJump(Skip);
      emit(TapeOp::OrB, Bd, Bd, Bd + 1, 0);
      return;
    }
    case ExprKind::Implies: {
      // A → B compiles as ¬A ∨ B, matching the tree walk exactly.
      if (!useBoolReg(Bd + 1))
        return;
      compileBool(*E.operand(0), Id, Bd);
      emit(TapeOp::NotB, Bd, Bd, 0, 0);
      size_t Skip = emit(TapeOp::JmpIfTrue, 0, Bd, 0, 0);
      compileBool(*E.operand(1), Id, Bd + 1);
      patchJump(Skip);
      emit(TapeOp::OrB, Bd, Bd, Bd + 1, 0);
      return;
    }
    case ExprKind::IntConst:
    case ExprKind::FieldRef:
    case ExprKind::Neg:
    case ExprKind::Add:
    case ExprKind::Sub:
    case ExprKind::Mul:
    case ExprKind::Abs:
    case ExprKind::Min:
    case ExprKind::Max:
    case ExprKind::IntIte:
      break;
    }
    ANOSY_UNREACHABLE("compileBool on integer-sorted expression");
  }
};

} // namespace anosy

TapeRef Tape::compile(const Expr &E) { return TapeCompiler().compile(E); }

//===----------------------------------------------------------------------===//
// Scalar interpreter
//===----------------------------------------------------------------------===//

namespace {

/// Runs the tape over one box; results land in S.IntRegs / S.BoolRegs.
/// Honors short-circuit jumps, so decided connectives skip their dead
/// side entirely — the scalar tape does strictly less arithmetic than
/// the tree walk while producing the same values.
void runScalar(const std::vector<TapeInsn> &Insns,
               const std::vector<int64_t> &Pool, const Box &B,
               TapeScratch &S) {
  assert(!B.isEmpty() && "abstract evaluation over an empty box");
  Interval *IR = S.IntRegs.data();
  Tribool *TR = S.BoolRegs.data();
  const TapeInsn *Code = Insns.data();
  size_t PC = 0, End = Insns.size();
  while (PC != End) {
    const TapeInsn &I = Code[PC++];
    switch (I.Op) {
    case TapeOp::LoadConst:
      IR[I.Dst] = Interval::point(Pool[static_cast<size_t>(I.Imm)]);
      break;
    case TapeOp::LoadField:
      assert(static_cast<size_t>(I.Imm) < B.arity() &&
             "field index out of range");
      IR[I.Dst] = B.dim(static_cast<size_t>(I.Imm));
      break;
    case TapeOp::NegI:
      IR[I.Dst] = rangeNeg(IR[I.A]);
      break;
    case TapeOp::AddI:
      IR[I.Dst] = rangeAdd(IR[I.A], IR[I.B]);
      break;
    case TapeOp::SubI:
      IR[I.Dst] = rangeSub(IR[I.A], IR[I.B]);
      break;
    case TapeOp::MulI:
      IR[I.Dst] = rangeMul(IR[I.A], IR[I.B]);
      break;
    case TapeOp::AbsI:
      IR[I.Dst] = rangeAbs(IR[I.A]);
      break;
    case TapeOp::MinI:
      IR[I.Dst] = rangeMin(IR[I.A], IR[I.B]);
      break;
    case TapeOp::MaxI:
      IR[I.Dst] = rangeMax(IR[I.A], IR[I.B]);
      break;
    case TapeOp::Sel:
      IR[I.Dst] = rangeSelect(TR[static_cast<size_t>(I.Imm)], IR[I.A],
                              IR[I.B]);
      break;
    case TapeOp::LoadBool:
      TR[I.Dst] = triboolOf(I.Imm != 0);
      break;
    case TapeOp::CmpII:
      TR[I.Dst] = rangeCmp(static_cast<CmpOp>(I.Imm), IR[I.A], IR[I.B]);
      break;
    case TapeOp::NotB:
      TR[I.Dst] = triNot(TR[I.A]);
      break;
    case TapeOp::AndB:
      TR[I.Dst] = triAnd(TR[I.A], TR[I.B]);
      break;
    case TapeOp::OrB:
      TR[I.Dst] = triOr(TR[I.A], TR[I.B]);
      break;
    case TapeOp::JmpIfFalse:
      if (TR[I.A] == Tribool::False)
        PC = static_cast<size_t>(I.Imm);
      break;
    case TapeOp::JmpIfTrue:
      if (TR[I.A] == Tribool::True)
        PC = static_cast<size_t>(I.Imm);
      break;
    }
  }
}

/// Sizes the scalar register files. Skipped instructions leave stale —
/// but always type-valid — values behind; zero-fill on growth keeps even
/// the first run reading initialized registers.
void prepareScalar(const Tape &T, TapeScratch &S) {
  if (S.IntRegs.size() < T.numIntRegs())
    S.IntRegs.resize(T.numIntRegs(), Interval::point(0));
  if (S.BoolRegs.size() < T.numBoolRegs())
    S.BoolRegs.resize(T.numBoolRegs(), Tribool::False);
}

} // namespace

Tribool Tape::run(const Box &B, TapeScratch &S) const {
  assert(ResultIsBool && "run() on an integer-sorted tape");
  prepareScalar(*this, S);
  runScalar(Insns, Pool, B, S);
  return S.BoolRegs[0];
}

Interval Tape::runRange(const Box &B, TapeScratch &S) const {
  assert(!ResultIsBool && "runRange() on a boolean-sorted tape");
  prepareScalar(*this, S);
  runScalar(Insns, Pool, B, S);
  return S.IntRegs[0];
}

//===----------------------------------------------------------------------===//
// Disassembler
//===----------------------------------------------------------------------===//

std::string Tape::str() const {
  auto OpName = [](TapeOp Op) -> const char * {
    switch (Op) {
    case TapeOp::LoadConst:
      return "ldc";
    case TapeOp::LoadField:
      return "ldf";
    case TapeOp::NegI:
      return "neg";
    case TapeOp::AddI:
      return "add";
    case TapeOp::SubI:
      return "sub";
    case TapeOp::MulI:
      return "mul";
    case TapeOp::AbsI:
      return "abs";
    case TapeOp::MinI:
      return "min";
    case TapeOp::MaxI:
      return "max";
    case TapeOp::Sel:
      return "sel";
    case TapeOp::LoadBool:
      return "ldb";
    case TapeOp::CmpII:
      return "cmp";
    case TapeOp::NotB:
      return "not";
    case TapeOp::AndB:
      return "and";
    case TapeOp::OrB:
      return "or";
    case TapeOp::JmpIfFalse:
      return "jf";
    case TapeOp::JmpIfTrue:
      return "jt";
    }
    return "?";
  };
  std::string S;
  for (size_t PC = 0; PC != Insns.size(); ++PC) {
    const TapeInsn &I = Insns[PC];
    S += std::to_string(PC) + ": " + OpName(I.Op);
    switch (I.Op) {
    case TapeOp::LoadConst:
      S += " i" + std::to_string(I.Dst) + ", " +
           std::to_string(Pool[static_cast<size_t>(I.Imm)]);
      break;
    case TapeOp::LoadField:
      S += " i" + std::to_string(I.Dst) + ", $" + std::to_string(I.Imm);
      break;
    case TapeOp::NegI:
    case TapeOp::AbsI:
      S += " i" + std::to_string(I.Dst) + ", i" + std::to_string(I.A);
      break;
    case TapeOp::AddI:
    case TapeOp::SubI:
    case TapeOp::MulI:
    case TapeOp::MinI:
    case TapeOp::MaxI:
      S += " i" + std::to_string(I.Dst) + ", i" + std::to_string(I.A) +
           ", i" + std::to_string(I.B);
      break;
    case TapeOp::Sel:
      S += " i" + std::to_string(I.Dst) + ", t" + std::to_string(I.Imm) +
           " ? i" + std::to_string(I.A) + " : i" + std::to_string(I.B);
      break;
    case TapeOp::LoadBool:
      S += " t" + std::to_string(I.Dst) +
           (I.Imm != 0 ? ", true" : ", false");
      break;
    case TapeOp::CmpII:
      S += " t" + std::to_string(I.Dst) + ", i" + std::to_string(I.A) +
           " " + cmpOpSpelling(static_cast<CmpOp>(I.Imm)) + " i" +
           std::to_string(I.B);
      break;
    case TapeOp::NotB:
      S += " t" + std::to_string(I.Dst) + ", t" + std::to_string(I.A);
      break;
    case TapeOp::AndB:
    case TapeOp::OrB:
      S += " t" + std::to_string(I.Dst) + ", t" + std::to_string(I.A) +
           ", t" + std::to_string(I.B);
      break;
    case TapeOp::JmpIfFalse:
    case TapeOp::JmpIfTrue:
      S += " t" + std::to_string(I.A) + ", @" + std::to_string(I.Imm);
      break;
    }
    S += "\n";
  }
  return S;
}
