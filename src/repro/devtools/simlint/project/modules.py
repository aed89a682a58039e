"""The project context: every module parsed and cross-indexed.

Name resolution here is deliberately *lightweight*: it resolves what
this codebase actually writes — module functions reached through
imports, ``self.method`` calls, and attribute chains whose types are
recoverable from constructor assignments and annotations — and returns
``None`` for anything dynamic. A ``None`` resolution makes the flow
analyses *less* precise, never wrong, so the whole layer stays sound
for its purpose (finding bugs, not proving their absence).
"""

from __future__ import annotations

import ast
import pathlib
import typing

from repro.devtools.simlint.context import ModuleContext, dotted_parts

FunctionNode = typing.Union[ast.FunctionDef, ast.AsyncFunctionDef]


class FunctionInfo:
    """One function or method definition, addressable project-wide."""

    def __init__(
        self,
        qualname: str,
        module: str,
        ctx: ModuleContext,
        node: FunctionNode,
        class_name: typing.Optional[str] = None,
    ):
        #: ``repro.array.controller.ArrayController._write_unit``
        self.qualname = qualname
        self.module = module
        self.ctx = ctx
        self.node = node
        self.class_name = class_name

    @property
    def name(self) -> str:
        return self.node.name

    @property
    def is_method(self) -> bool:
        return self.class_name is not None

    @property
    def params(self) -> typing.List[ast.arg]:
        args = self.node.args
        return list(args.posonlyargs) + list(args.args)

    def param_index(self, name: str) -> typing.Optional[int]:
        for index, arg in enumerate(self.params):
            if arg.arg == name:
                return index
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FunctionInfo {self.qualname}>"


class ClassInfo:
    """One class definition plus what we can infer about its attributes."""

    def __init__(
        self, qualname: str, module: str, ctx: ModuleContext, node: ast.ClassDef
    ):
        self.qualname = qualname
        self.module = module
        self.ctx = ctx
        self.node = node
        self.methods: typing.Dict[str, FunctionInfo] = {}
        #: Base-class qualnames resolved to project classes (others dropped).
        self.bases: typing.List[str] = []
        #: Attribute name -> class qualname, inferred from ``self.x =
        #: Ctor(...)``, annotated assignments, and annotated parameters.
        self.attr_types: typing.Dict[str, str] = {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ClassInfo {self.qualname}>"


def _module_name(path: pathlib.Path) -> str:
    """Dotted module name of ``path``, by walking up through packages."""
    parts = [] if path.stem == "__init__" else [path.stem]
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.insert(0, parent.name)
        parent = parent.parent
    return ".".join(parts) or path.stem


class ProjectContext:
    """Every module of one lint run, parsed and cross-indexed.

    Flow analyses (taint, lock discipline) are memoized here so rules
    that share one pay for it once.
    """

    def __init__(self, files: typing.Sequence[pathlib.Path]):
        #: path string (as reported in findings) -> ModuleContext
        self.contexts: typing.Dict[str, ModuleContext] = {}
        #: dotted module name -> ModuleContext
        self.modules: typing.Dict[str, ModuleContext] = {}
        self.functions: typing.Dict[str, FunctionInfo] = {}
        self.classes: typing.Dict[str, ClassInfo] = {}
        self._analyses: typing.Dict[str, object] = {}
        for path in files:
            source = path.read_text(encoding="utf-8")
            ctx = ModuleContext(path.as_posix(), source)
            module = _module_name(path)
            self.contexts[ctx.path] = ctx
            self.modules[module] = ctx
        for module in sorted(self.modules):
            self._index_module(module, self.modules[module])
        for module in sorted(self.modules):
            self._infer_class_attrs(module, self.modules[module])

    # ------------------------------------------------------------------
    # Indexing
    # ------------------------------------------------------------------
    def _index_module(self, module: str, ctx: ModuleContext) -> None:
        for stmt in ctx.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info = FunctionInfo(f"{module}.{stmt.name}", module, ctx, stmt)
                self.functions[info.qualname] = info
            elif isinstance(stmt, ast.ClassDef):
                cls = ClassInfo(f"{module}.{stmt.name}", module, ctx, stmt)
                self.classes[cls.qualname] = cls
                for base in stmt.bases:
                    resolved = ctx.resolve(base)
                    if resolved is None:
                        continue
                    candidate = self._class_qualname(module, resolved)
                    if candidate is not None:
                        cls.bases.append(candidate)
                for item in stmt.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        info = FunctionInfo(
                            f"{cls.qualname}.{item.name}",
                            module,
                            ctx,
                            item,
                            class_name=stmt.name,
                        )
                        cls.methods[item.name] = info
                        self.functions[info.qualname] = info

    def _class_qualname(self, module: str, dotted: str) -> typing.Optional[str]:
        """Project class named by ``dotted`` as seen from ``module``."""
        if dotted in self.classes:
            return dotted
        local = f"{module}.{dotted}"
        if local in self.classes:
            return local
        return None

    def _annotation_class(
        self, module: str, ctx: ModuleContext, annotation: typing.Optional[ast.AST]
    ) -> typing.Optional[str]:
        """Project class a type annotation names, unwrapping Optional."""
        if annotation is None:
            return None
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            # String annotation (import-cycle guard idiom): parse and recurse.
            try:
                annotation = ast.parse(annotation.value, mode="eval").body
            except SyntaxError:
                return None
        if isinstance(annotation, ast.Subscript):
            # Optional[T] / typing.Optional[T]: look inside.
            base = dotted_parts(annotation.value)
            if base and base[-1] == "Optional":
                return self._annotation_class(module, ctx, annotation.slice)
            return None
        resolved = ctx.resolve(annotation)
        if resolved is None:
            return None
        return self._class_qualname(module, resolved)

    def _infer_class_attrs(self, module: str, ctx: ModuleContext) -> None:
        for cls_qualname in sorted(self.classes):
            cls = self.classes[cls_qualname]
            if cls.module != module:
                continue
            for item in cls.node.body:
                # Dataclass / annotated class attributes: ``x: T``.
                if isinstance(item, ast.AnnAssign) and isinstance(
                    item.target, ast.Name
                ):
                    inferred = self._annotation_class(module, ctx, item.annotation)
                    if inferred is not None:
                        cls.attr_types[item.target.id] = inferred
            for method in cls.methods.values():
                param_types = {
                    arg.arg: self._annotation_class(module, ctx, arg.annotation)
                    for arg in method.params
                }
                for node in ast.walk(method.node):
                    target = None
                    value = None
                    if isinstance(node, ast.Assign) and len(node.targets) == 1:
                        target, value = node.targets[0], node.value
                    elif isinstance(node, ast.AnnAssign):
                        target, value = node.target, node.value
                    if not (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        continue
                    if isinstance(node, ast.AnnAssign):
                        inferred = self._annotation_class(module, ctx, node.annotation)
                    elif isinstance(value, ast.Call):
                        resolved = ctx.resolve(value.func)
                        inferred = (
                            self._class_qualname(module, resolved)
                            if resolved
                            else None
                        )
                    elif isinstance(value, ast.Name):
                        inferred = param_types.get(value.id)
                    else:
                        inferred = None
                    if inferred is not None:
                        cls.attr_types.setdefault(target.attr, inferred)

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    def class_of(self, func: FunctionInfo) -> typing.Optional[ClassInfo]:
        if func.class_name is None:
            return None
        return self.classes.get(f"{func.module}.{func.class_name}")

    def method_on(
        self, cls: typing.Optional[ClassInfo], name: str
    ) -> typing.Optional[FunctionInfo]:
        """``name`` looked up on ``cls`` then depth-first on its bases."""
        seen: typing.Set[str] = set()
        stack = [cls] if cls is not None else []
        while stack:
            current = stack.pop(0)
            if current is None or current.qualname in seen:
                continue
            seen.add(current.qualname)
            if name in current.methods:
                return current.methods[name]
            stack.extend(self.classes.get(base) for base in current.bases)
        return None

    def attr_type(
        self, cls: typing.Optional[ClassInfo], name: str
    ) -> typing.Optional[str]:
        """Class qualname of attribute ``name``, searching base classes."""
        seen: typing.Set[str] = set()
        stack = [cls] if cls is not None else []
        while stack:
            current = stack.pop(0)
            if current is None or current.qualname in seen:
                continue
            seen.add(current.qualname)
            if name in current.attr_types:
                return current.attr_types[name]
            stack.extend(self.classes.get(base) for base in current.bases)
        return None

    def analysis(self, key: str, build: typing.Callable[[], object]) -> object:
        """Memoized analysis result shared by rules and the sanitizer."""
        if key not in self._analyses:
            self._analyses[key] = build()
        return self._analyses[key]


class LocalTypes:
    """Per-function variable-to-class typing, from annotations & ctors.

    One pass over the function body collects ``x = Ctor(...)``,
    ``x = self.attr``, ``x = other_var``, and annotated parameters; a
    second pass closes simple alias chains.
    """

    def __init__(self, project: ProjectContext, func: FunctionInfo):
        self.project = project
        self.func = func
        self.ctx = func.ctx
        self.module = func.module
        self._cls = project.class_of(func)
        self.types: typing.Dict[str, str] = {}
        for arg in func.params:
            inferred = project._annotation_class(
                self.module, self.ctx, arg.annotation
            )
            if inferred is not None:
                self.types[arg.arg] = inferred
        pending: typing.List[typing.Tuple[str, ast.AST]] = []
        for node in ast.walk(func.node):
            target = None
            value = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            elif isinstance(node, ast.AnnAssign):
                target, value = node.target, node.value
                if isinstance(target, ast.Name):
                    inferred = project._annotation_class(
                        self.module, self.ctx, node.annotation
                    )
                    if inferred is not None:
                        self.types[target.id] = inferred
                        continue
            if isinstance(target, ast.Name) and value is not None:
                pending.append((target.id, value))
        for _ in range(2):  # two passes close x = y; y = self.attr chains
            for name, value in pending:
                if name in self.types:
                    continue
                inferred = self.type_of(value)
                if inferred is not None:
                    self.types[name] = inferred

    def type_of(self, expr: ast.AST) -> typing.Optional[str]:
        """Project-class qualname of ``expr``, or None when unknowable."""
        if isinstance(expr, ast.Name):
            if expr.id in ("self", "cls") and self._cls is not None:
                return self._cls.qualname
            return self.types.get(expr.id)
        if isinstance(expr, ast.Attribute):
            base = self.type_of(expr.value)
            if base is not None:
                return self.project.attr_type(
                    self.project.classes.get(base), expr.attr
                )
            return None
        if isinstance(expr, ast.Call):
            resolved = self.ctx.resolve(expr.func)
            if resolved is not None:
                return self.project._class_qualname(self.module, resolved)
        return None

    def resolve_call(self, call: ast.Call) -> typing.Optional[FunctionInfo]:
        """The project function/method a call names, or None."""
        func = call.func
        if isinstance(func, ast.Name):
            resolved = self.ctx.resolve(func)
            if resolved is not None:
                found = self.project.functions.get(resolved)
                if found is not None:
                    return found
                found = self.project.functions.get(f"{self.module}.{resolved}")
                if found is not None:
                    return found
            return None
        if isinstance(func, ast.Attribute):
            # Fully-dotted spellings first (module.func, Class.method).
            resolved = self.ctx.resolve(func)
            if resolved is not None and resolved in self.project.functions:
                return self.project.functions[resolved]
            base_type = self.type_of(func.value)
            if base_type is not None:
                return self.project.method_on(
                    self.project.classes.get(base_type), func.attr
                )
        return None
