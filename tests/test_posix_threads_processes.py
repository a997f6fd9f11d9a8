"""Unit tests for the POSIX model: pthreads, synchronization, processes."""

from repro import lang as L
from repro.engine import BugKind
from repro.testing import SymbolicTest


def run_program(entry_body, extra_funcs=(), options=None):
    program = L.program("p", *extra_funcs, L.func("main", [], *entry_body))
    test = SymbolicTest("t", program, options=options or {})
    return test.run()


class TestThreads:
    def test_pthread_create_and_join_returns_exit_value(self):
        worker = L.func("worker", ["arg"], L.ret(L.add(L.var("arg"), 5)))
        result = run_program([
            L.decl("tid", L.call("pthread_create", L.strconst("worker"), 37)),
            L.ret(L.call("pthread_join", L.var("tid"))),
        ], extra_funcs=[worker])
        assert not result.bugs
        assert result.test_cases[0].exit_code == 42

    def test_pthread_self(self):
        result = run_program([L.ret(L.call("pthread_self"))])
        assert result.test_cases[0].exit_code == 0

    def test_join_self_fails(self):
        result = run_program([L.ret(L.call("pthread_join", 0))])
        assert result.test_cases[0].exit_code == 0xFFFFFFFF

    def test_pthread_exit_value_visible_to_joiner(self):
        worker = L.func("worker", ["arg"],
                        L.expr_stmt(L.call("pthread_exit", 99)),
                        L.ret(0))
        result = run_program([
            L.decl("tid", L.call("pthread_create", L.strconst("worker"), 0)),
            L.ret(L.call("pthread_join", L.var("tid"))),
        ], extra_funcs=[worker])
        assert result.test_cases[0].exit_code == 99


class TestMutex:
    def test_lock_unlock(self):
        result = run_program([
            L.decl("m", L.call("pthread_mutex_init")),
            L.decl("rc1", L.call("pthread_mutex_lock", L.var("m"))),
            L.decl("rc2", L.call("pthread_mutex_unlock", L.var("m"))),
            L.ret(L.add(L.var("rc1"), L.var("rc2"))),
        ])
        assert result.test_cases[0].exit_code == 0

    def test_unlock_not_owned_is_error(self):
        result = run_program([
            L.decl("m", L.call("pthread_mutex_init")),
            L.ret(L.call("pthread_mutex_unlock", L.var("m"))),
        ])
        assert result.test_cases[0].exit_code == 1  # EPERM

    def test_trylock_on_taken_mutex(self):
        result = run_program([
            L.decl("m", L.call("pthread_mutex_init")),
            L.expr_stmt(L.call("pthread_mutex_lock", L.var("m"))),
            L.ret(L.call("pthread_mutex_trylock", L.var("m"))),
        ])
        assert result.test_cases[0].exit_code == 16  # EBUSY

    def test_mutex_provides_mutual_exclusion(self):
        # The worker increments a shared counter twice under the lock; main
        # (also under the lock) reads a consistent value.
        worker = L.func(
            "worker", ["shared"],
            L.decl("m", L.index(L.var("shared"), 1)),
            L.expr_stmt(L.call("pthread_mutex_lock", L.var("m"))),
            L.store(L.var("shared"), 0, L.add(L.index(L.var("shared"), 0), 1)),
            L.expr_stmt(L.call("cloud9_thread_preempt")),
            L.store(L.var("shared"), 0, L.add(L.index(L.var("shared"), 0), 1)),
            L.expr_stmt(L.call("pthread_mutex_unlock", L.var("m"))),
            L.ret(0),
        )
        result = run_program([
            L.decl("shared", L.call("malloc", 2)),
            L.decl("m", L.call("pthread_mutex_init")),
            L.store(L.var("shared"), 1, L.var("m")),
            L.decl("tid", L.call("pthread_create", L.strconst("worker"), L.var("shared"))),
            L.expr_stmt(L.call("cloud9_thread_preempt")),
            L.expr_stmt(L.call("pthread_mutex_lock", L.var("m"))),
            L.decl("seen", L.index(L.var("shared"), 0)),
            L.expr_stmt(L.call("pthread_mutex_unlock", L.var("m"))),
            L.expr_stmt(L.call("pthread_join", L.var("tid"))),
            L.assert_(L.lor(L.eq(L.var("seen"), 0), L.eq(L.var("seen"), 2)),
                      "observed a torn update"),
            L.ret(L.var("seen")),
        ], extra_funcs=[worker], options={"fork_schedules": True})
        assert not result.bugs
        assert result.paths_completed >= 1

    def test_deadlock_on_double_lock(self):
        result = run_program([
            L.decl("m", L.call("pthread_mutex_init")),
            L.expr_stmt(L.call("pthread_mutex_lock", L.var("m"))),
            L.ret(L.call("pthread_mutex_lock", L.var("m"))),
        ])
        # Self-deadlock is reported as EDEADLK (the model's non-blocking
        # answer for re-locking the owner's mutex).
        assert result.test_cases[0].exit_code == 35


class TestCondVars:
    def test_cond_wait_signal(self):
        signaler = L.func(
            "signaler", ["shared"],
            L.decl("m", L.index(L.var("shared"), 0)),
            L.decl("cv", L.index(L.var("shared"), 1)),
            L.expr_stmt(L.call("pthread_mutex_lock", L.var("m"))),
            L.store(L.var("shared"), 2, 1),
            L.expr_stmt(L.call("pthread_cond_signal", L.var("cv"))),
            L.expr_stmt(L.call("pthread_mutex_unlock", L.var("m"))),
            L.ret(0),
        )
        result = run_program([
            L.decl("shared", L.call("malloc", 3)),
            L.decl("m", L.call("pthread_mutex_init")),
            L.decl("cv", L.call("pthread_cond_init")),
            L.store(L.var("shared"), 0, L.var("m")),
            L.store(L.var("shared"), 1, L.var("cv")),
            L.decl("tid", L.call("pthread_create", L.strconst("signaler"), L.var("shared"))),
            L.expr_stmt(L.call("pthread_mutex_lock", L.var("m"))),
            L.while_(L.eq(L.index(L.var("shared"), 2), 0),
                     L.expr_stmt(L.call("pthread_cond_wait", L.var("cv"), L.var("m")))),
            L.expr_stmt(L.call("pthread_mutex_unlock", L.var("m"))),
            L.expr_stmt(L.call("pthread_join", L.var("tid"))),
            L.ret(L.index(L.var("shared"), 2)),
        ], extra_funcs=[signaler])
        assert not result.bugs
        assert result.test_cases[0].exit_code == 1


class TestSemaphores:
    def test_post_then_wait(self):
        result = run_program([
            L.decl("s", L.call("sem_init", 0)),
            L.expr_stmt(L.call("sem_post", L.var("s"))),
            L.ret(L.call("sem_wait", L.var("s"))),
        ])
        assert result.test_cases[0].exit_code == 0

    def test_trywait_on_empty(self):
        result = run_program([
            L.decl("s", L.call("sem_init", 0)),
            L.ret(L.call("sem_trywait", L.var("s"))),
        ])
        assert result.test_cases[0].exit_code == 16  # EBUSY


class TestProcesses:
    def test_fork_returns_zero_in_child(self):
        result = run_program([
            L.decl("pid", L.call("fork")),
            L.if_(L.eq(L.var("pid"), 0), [
                L.expr_stmt(L.call("exit", 7)),
            ]),
            L.ret(L.call("waitpid", L.var("pid"))),
        ])
        assert not result.bugs
        assert result.test_cases[0].exit_code == 7

    def test_fork_isolates_private_memory(self):
        result = run_program([
            L.decl("buf", L.call("malloc", 1)),
            L.store(L.var("buf"), 0, 1),
            L.decl("pid", L.call("fork")),
            L.if_(L.eq(L.var("pid"), 0), [
                L.store(L.var("buf"), 0, 99),
                L.expr_stmt(L.call("exit", 0)),
            ]),
            L.expr_stmt(L.call("waitpid", L.var("pid"))),
            L.ret(L.index(L.var("buf"), 0)),
        ])
        assert result.test_cases[0].exit_code == 1

    def test_shared_memory_visible_across_fork(self):
        result = run_program([
            L.decl("buf", L.call("malloc", 1)),
            L.expr_stmt(L.call("cloud9_make_shared", L.var("buf"))),
            L.decl("pid", L.call("fork")),
            L.if_(L.eq(L.var("pid"), 0), [
                L.store(L.var("buf"), 0, 55),
                L.expr_stmt(L.call("exit", 0)),
            ]),
            L.expr_stmt(L.call("waitpid", L.var("pid"))),
            L.ret(L.index(L.var("buf"), 0)),
        ])
        assert result.test_cases[0].exit_code == 55

    def test_getpid_differs_between_parent_and_child(self):
        result = run_program([
            L.decl("pid", L.call("fork")),
            L.if_(L.eq(L.var("pid"), 0), [
                L.expr_stmt(L.call("exit", L.call("getpid"))),
            ]),
            L.decl("child_pid", L.call("waitpid", L.var("pid"))),
            L.assert_(L.ne(L.var("child_pid"), L.call("getpid")),
                      "child pid must differ from parent pid"),
            L.ret(L.var("child_pid")),
        ])
        assert not result.bugs

    def test_waitpid_unknown_child(self):
        result = run_program([L.ret(L.call("waitpid", 77))])
        assert result.test_cases[0].exit_code == 0xFFFFFFFF

    def test_fds_inherited_across_fork(self):
        result = run_program([
            L.decl("pair", L.call("malloc", 2)),
            L.expr_stmt(L.call("socketpair", L.var("pair"))),
            L.decl("a", L.index(L.var("pair"), 0)),
            L.decl("b", L.index(L.var("pair"), 1)),
            L.decl("pid", L.call("fork")),
            L.if_(L.eq(L.var("pid"), 0), [
                L.decl("msg", L.strconst("k")),
                L.expr_stmt(L.call("write", L.var("a"), L.var("msg"), 1)),
                L.expr_stmt(L.call("exit", 0)),
            ]),
            L.decl("buf", L.call("malloc", 1)),
            L.expr_stmt(L.call("read", L.var("b"), L.var("buf"), 1)),
            L.expr_stmt(L.call("waitpid", L.var("pid"))),
            L.ret(L.index(L.var("buf"), 0)),
        ])
        assert not result.bugs
        assert result.test_cases[0].exit_code == ord("k")
