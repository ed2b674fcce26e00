//! Compile-time constant evaluation over the HIR.
//!
//! Used by sema for `__local` array sizes (e.g. `16 * 16` tiles); the MIR
//! lowers HIR constants through [`const_to_value`]. Folding inside kernel
//! bodies is the MIR's constant propagation pass.

use crate::builtins;
use crate::hir::{ConstValue, Expr};
use crate::value::{self, Value};

/// Converts a HIR constant to a runtime value.
pub fn const_to_value(c: ConstValue) -> Value {
    match c {
        ConstValue::Bool(b) => Value::Bool(b),
        ConstValue::F32(f) => Value::F32(f),
        ConstValue::F64(f) => Value::F64(f),
        ConstValue::Int(v, ty) => value::convert(Value::I64(v), ty),
    }
}

/// Converts a runtime scalar value back to a HIR constant.
///
/// # Panics
///
/// Panics on pointer values.
pub fn value_to_const(v: Value) -> ConstValue {
    match v {
        Value::Bool(b) => ConstValue::Bool(b),
        Value::F32(f) => ConstValue::F32(f),
        Value::F64(f) => ConstValue::F64(f),
        Value::Ptr(_) => panic!("pointer value cannot be a compile-time constant"),
        other => {
            let ty = other.scalar_type().expect("scalar");
            ConstValue::Int(other.as_i64(), ty)
        }
    }
}

/// Attempts to evaluate `e` as a compile-time constant. Returns `None` for
/// anything effectful or dependent on runtime state (locals, loads, calls,
/// work-item queries).
pub fn try_eval(e: &Expr) -> Option<ConstValue> {
    let v = eval_value(e)?;
    Some(value_to_const(v))
}

fn eval_value(e: &Expr) -> Option<Value> {
    match e {
        Expr::Const { value, .. } => Some(const_to_value(*value)),
        Expr::Unary { op, expr, .. } => {
            let v = eval_value(expr)?;
            value::unary(*op, v).ok()
        }
        Expr::Binary { op, lhs, rhs, .. } => {
            let l = eval_value(lhs)?;
            let r = eval_value(rhs)?;
            value::binary(*op, l, r).ok()
        }
        Expr::Compare { op, lhs, rhs, .. } => {
            let l = eval_value(lhs)?;
            let r = eval_value(rhs)?;
            value::compare(*op, l, r).ok().map(Value::Bool)
        }
        Expr::Logical {
            is_and, lhs, rhs, ..
        } => {
            let l = eval_value(lhs)?.is_truthy();
            // Short-circuit even at compile time so the other operand need
            // not be constant.
            if *is_and && !l {
                return Some(Value::Bool(false));
            }
            if !*is_and && l {
                return Some(Value::Bool(true));
            }
            let r = eval_value(rhs)?.is_truthy();
            Some(Value::Bool(r))
        }
        Expr::Convert { to, expr, .. } => {
            let v = eval_value(expr)?;
            Some(value::convert(v, *to))
        }
        Expr::Ternary {
            cond,
            then_expr,
            else_expr,
            ..
        } => {
            let c = eval_value(cond)?.is_truthy();
            if c {
                eval_value(then_expr)
            } else {
                eval_value(else_expr)
            }
        }
        Expr::BuiltinCall { builtin, args, .. } if !builtin.is_special() => {
            let vals: Option<Vec<Value>> = args.iter().map(eval_value).collect();
            Some(builtins::eval_pure(*builtin, &vals?))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Diagnostics;
    use crate::hir::Stmt;
    use crate::parser::parse;
    use crate::sema::analyze;
    use crate::source::SourceFile;
    use crate::types::ScalarType;

    fn lower(src: &str) -> crate::hir::Unit {
        let f = SourceFile::new("t.cl", src);
        let mut d = Diagnostics::new();
        let tu = parse(&f, &mut d);
        analyze(&tu, &mut d).unwrap_or_else(|| panic!("errors: {}", d.render(&f)))
    }

    fn eval_return(src: &str) -> Option<ConstValue> {
        let u = lower(src);
        let (_, f) = u.function("f").expect("test functions are named `f`");
        let Stmt::Return(Some(e)) = &f.body[f.body.len() - 1] else {
            panic!()
        };
        try_eval(e)
    }

    #[test]
    fn folds_integer_arithmetic() {
        assert_eq!(
            eval_return("int f(){ return 16 * 16 + 1; }"),
            Some(ConstValue::Int(257, ScalarType::Int))
        );
        assert_eq!(
            eval_return("int f(){ return (1 << 10) - 1; }"),
            Some(ConstValue::Int(1023, ScalarType::Int))
        );
    }

    #[test]
    fn folds_float_math_and_casts() {
        assert_eq!(
            eval_return("float f(){ return (float)(3 * 2); }"),
            Some(ConstValue::F32(6.0))
        );
        assert_eq!(
            eval_return("float f(){ return sqrt(16.0f); }"),
            Some(ConstValue::F32(4.0))
        );
    }

    #[test]
    fn folds_comparisons_and_ternary() {
        assert_eq!(
            eval_return("int f(){ return 3 < 4 ? 10 : 20; }"),
            Some(ConstValue::Int(10, ScalarType::Int))
        );
        assert_eq!(
            eval_return("bool f(){ return 1 == 2; }"),
            Some(ConstValue::Bool(false))
        );
    }

    #[test]
    fn short_circuit_ignores_non_constant_side() {
        // `x != 0` is not constant but `false && ...` folds anyway.
        assert_eq!(
            eval_return("bool f(int x){ return false && x != 0; }"),
            Some(ConstValue::Bool(false))
        );
        assert_eq!(
            eval_return("bool f(int x){ return true || x != 0; }"),
            Some(ConstValue::Bool(true))
        );
    }

    #[test]
    fn runtime_values_do_not_fold() {
        assert_eq!(eval_return("int f(int x){ return x + 1; }"), None);
        assert_eq!(
            eval_return("float f(__global float* p){ return p[0]; }"),
            None
        );
        assert_eq!(
            eval_return("__kernel void unused(__global int* o){ o[0]=0; } int f(){ return (int)get_global_id(0); }"),
            None
        );
    }

    #[test]
    fn division_by_zero_does_not_fold() {
        // Folding must not hide the runtime trap.
        assert_eq!(eval_return("int f(){ return 1 / 0; }"), None);
    }

    #[test]
    fn const_value_round_trip() {
        for c in [
            ConstValue::Bool(true),
            ConstValue::Int(-7, ScalarType::Char),
            ConstValue::Int(70000, ScalarType::Int),
            ConstValue::F32(1.5),
            ConstValue::F64(-2.25),
        ] {
            assert_eq!(value_to_const(const_to_value(c)), c);
        }
    }
}
